"""Clock/shift cocycle relations, the canonical trace, and trace quantization."""

import math

import numpy as np
import pytest

from blochspec.algebra import (
    KADISON_TOL,
    ProjectivePair,
    canonical_trace,
    clock_shift,
    commutation_residual,
    kadison_band_bound,
    spectral_projection_trace,
)
from blochspec.assembly import ids, interior_gaps
from blochspec.harper import HarperParams, bloch_matrix_family, farey_fractions, harper_spectrum
from blochspec.model import RationalFlux


def params(p, q, lam=1.0):
    return HarperParams(flux=RationalFlux(p, q), lam=lam)


# ---------------------------------------------------------------- clock and shift

def test_commutative_case():
    pair = clock_shift(RationalFlux(0, 1))
    assert pair.dimension == 1
    assert np.allclose(pair.U, [[1.0]]) and np.allclose(pair.V, [[1.0]])
    assert pair.omega == 1.0 + 0.0j


def test_flux_half_is_the_pauli_pair():
    pair = clock_shift(RationalFlux(1, 2))
    assert np.allclose(pair.U, np.diag([1.0, -1.0]))
    assert np.allclose(pair.V, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pair.U @ pair.V, -pair.V @ pair.U)


def test_flux_two_fifths_residual():
    pair = clock_shift(RationalFlux(2, 5))
    assert commutation_residual(pair.U, pair.V, pair.omega) <= 1e-14


def test_cocycle_relation_all_q_up_to_64():
    for q in range(1, 65):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            pair = clock_shift(RationalFlux(p, q))
            assert commutation_residual(pair.U, pair.V, pair.omega) <= 1e-12


def test_projective_pair_validates_inputs():
    with pytest.raises(ValueError):
        ProjectivePair(np.eye(2) * 2.0, np.eye(2), 1.0)  # not unitary
    with pytest.raises(ValueError):
        ProjectivePair(np.eye(2), np.eye(2), -1.0)  # wrong omega


# ---------------------------------------------------------------- canonical trace

def test_trace_of_identity_family_is_one():
    fam = np.broadcast_to(np.eye(3, dtype=complex), (10, 3, 3))
    assert canonical_trace(fam) == pytest.approx(1.0, abs=1e-14)


def test_trace_of_harper_family_vanishes():
    for p, q in ((0, 1), (1, 2), (1, 3), (2, 5)):
        fam = bloch_matrix_family(params(p, q), (16, 16))
        assert abs(canonical_trace(fam)) <= 1e-13


def test_trace_of_squared_flux_half_family():
    # closed-form double integral of E+^2 + E-^2 over the zone gives 4
    fam = bloch_matrix_family(params(1, 2), (64, 64))
    squared = np.einsum("abij,abjk->abik", fam, fam)
    assert canonical_trace(squared) == pytest.approx(4.0, abs=1e-12)


def test_trace_positive_on_nonzero_elements():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        fam = rng.normal(size=(7, q, q)) + 1j * rng.normal(size=(7, q, q))
        gram = np.einsum("kij,kil->kjl", fam.conj(), fam)  # a* a per k, Hermitian PSD
        assert canonical_trace(gram) > 0.0
    zero = np.zeros((4, 3, 3), dtype=complex)
    assert canonical_trace(np.einsum("kij,kil->kjl", zero.conj(), zero)) == 0.0


def test_trace_rejects_mixed_dimensions_and_empty():
    with pytest.raises(ValueError):
        canonical_trace([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        canonical_trace([])


def test_trace_accepts_mapping_input():
    fam = {(0.0, 0.0): np.eye(2), (0.0, 1.0): np.eye(2)}
    assert canonical_trace(fam) == pytest.approx(1.0)


# ---------------------------------------------------------------- projection traces

def test_projection_trace_in_lowest_flux_third_gap():
    e_in_gap = 0.5 * (-2.0 + (1.0 - math.sqrt(3.0)))
    value = spectral_projection_trace(params(1, 3), e_in_gap)
    assert abs(value - 1.0 / 3.0) <= 1e-6


def test_projection_trace_above_and_below_spectrum():
    assert spectral_projection_trace(params(0, 1), 5.0) == pytest.approx(1.0)
    assert spectral_projection_trace(params(1, 2), -3.0) == pytest.approx(0.0)


def test_projection_trace_rejects_energy_inside_band():
    with pytest.raises(ValueError):
        spectral_projection_trace(params(0, 1), 0.0)


def test_kadison_band_bound():
    assert kadison_band_bound(RationalFlux(1, 2)) == 2
    assert kadison_band_bound(RationalFlux(3, 7)) == 7
    assert kadison_band_bound(RationalFlux(0, 1)) == 1


def test_projection_trace_serves_an_array_of_energies():
    s3 = math.sqrt(3.0)
    energies = np.array([-5.0, 0.5 * (-2.0 + 1.0 - s3), 0.5 * (s3 - 1.0 + 2.0), 5.0])
    values = spectral_projection_trace(params(1, 3), energies)
    assert np.allclose(values, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        spectral_projection_trace(params(1, 3), np.array([-5.0, 0.0]))


def test_quantization_on_every_detected_gap_q_up_to_12():
    # every exact interior gap, one sweep per flux for the trace and one for the IDS
    kgrid = (64, 64)
    checked = 0
    for flux in farey_fractions(12):
        p, q = flux.p, flux.q
        bands = harper_spectrum(params(p, q))
        assert len(bands) == (q if q % 2 else q - 1)
        mids = np.array([0.5 * (lo + hi) for lo, hi in interior_gaps(bands)])
        if not mids.size:
            continue
        values = spectral_projection_trace(params(p, q), mids, kgrid)
        assert np.all(np.abs(values * q - np.round(values * q)) <= KADISON_TOL * q)
        assert np.all((values > 0.0) & (values < 1.0))
        assert np.all(np.diff(values) > 0)  # each gap carries its own label
        # same quantity through the IDS code path
        curve = ids(params(p, q), egrid=mids, kgrid=kgrid)
        assert np.abs(curve.values - values).max() <= 1e-9
        checked += mids.size
    assert checked == 312
