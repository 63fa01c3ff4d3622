"""Clock/shift cocycle relations, the canonical trace, and trace quantization: the
IDS in a gap equals the canonical trace of the spectral projection there."""

import math
import time

import numpy as np
import pytest

from oracles import (
    bloch_matrix_family,
    canonical_trace,
    dense_clock_shift,
    dense_clock_shift_residuals,
    params,
    spectral_projections,
)

from blochspec.harper import farey_fractions, harper_spectrum, ids
from blochspec.model import (
    RationalFlux,
    clock_shift,
    commutation_residual,
    interior_gaps,
    unitarity_residual,
)


# ---------------------------------------------------------------- clock and shift

def test_commutative_case():
    u, omega = clock_shift(RationalFlux(0, 1))
    assert u.tolist() == [1.0]
    assert omega == 1.0 + 0.0j


def test_flux_half_is_the_pauli_pair():
    u, _ = clock_shift(RationalFlux(1, 2))
    U, V, _ = dense_clock_shift(RationalFlux(1, 2))
    assert np.allclose(np.diag(u), U)
    assert np.allclose(U, np.diag([1.0, -1.0]))
    assert np.allclose(V, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(U @ V, -V @ U)


def test_flux_two_fifths_residual():
    u, omega = clock_shift(RationalFlux(2, 5))
    assert commutation_residual(u, omega) <= 1e-14
    # the wrong root of unity breaks every one of the q entries
    assert commutation_residual(u, omega.conjugate()) > 1.0


def test_cocycle_relation_all_q_up_to_64():
    # the O(q) residuals hold the relation and agree with the dense q x q reference,
    # whose shift is exactly unitary, as algebra-check prints it
    for flux in farey_fractions(64):
        u, omega = clock_shift(flux)
        assert type(omega) is complex
        residuals = [unitarity_residual(u), commutation_residual(u, omega)]
        dense_u, dense_v, dense_cocycle = dense_clock_shift_residuals(flux)
        assert max(residuals) <= 1e-12
        assert dense_v == 0.0
        assert np.allclose(residuals, [dense_u, dense_cocycle], rtol=0, atol=1e-15), flux


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


# ---------------------------------------------------------------- projection traces

def projection_traces(prm, energies):
    """Canonical traces of the spectral projections below each energy on an 8 x 8 k-grid."""
    return [canonical_trace(proj) for proj in spectral_projections(prm, energies, (8, 8))]


def test_projection_trace_in_lowest_flux_third_gap():
    e_in_gap = 0.5 * (-2.0 + (1.0 - math.sqrt(3.0)))
    assert ids(params(1, 3), egrid=[e_in_gap])[1].tolist() == [1.0 / 3.0]
    assert projection_traces(params(1, 3), [e_in_gap]) == pytest.approx([1.0 / 3.0], abs=1e-14)


def test_projection_trace_above_and_below_spectrum():
    assert ids(params(0, 1), egrid=[5.0])[1].tolist() == [1.0]
    assert ids(params(1, 2), egrid=[-3.0])[1].tolist() == [0.0]
    assert projection_traces(params(0, 1), [5.0]) == pytest.approx([1.0], abs=1e-14)
    assert projection_traces(params(1, 2), [-3.0]) == [0.0]


def test_projection_trace_serves_an_array_of_energies():
    s3 = math.sqrt(3.0)
    energies = np.array([-5.0, 0.5 * (-2.0 + 1.0 - s3), 0.5 * (s3 - 1.0 + 2.0), 5.0])
    _, values = ids(params(1, 3), egrid=energies)
    assert np.array_equal(values, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(projection_traces(params(1, 3), energies), values, rtol=0, atol=1e-14)


def test_quantization_on_every_detected_gap_q_up_to_12():
    # every exact interior gap: the IDS is exactly j/q and the canonical trace of
    # the spectral projection on an 8 x 8 grid agrees, since in a gap every fiber
    # has the same number of eigenvalues below
    start = time.perf_counter()
    checked = 0
    for flux in farey_fractions(12):
        p, q = flux.p, flux.q
        bands = harper_spectrum(params(p, q))
        assert len(bands.intervals) == (q if q % 2 else q - 1)
        mids = np.array([0.5 * (lo + hi) for lo, hi in interior_gaps(bands)])
        if not mids.size:
            continue
        _, values = ids(params(p, q), egrid=mids)
        labels = [j for j in range(1, q) if 2 * j != q]  # the even-q centre gap is closed
        assert np.array_equal(values, np.array(labels) / q)
        assert np.allclose(projection_traces(params(p, q), mids), values, rtol=0, atol=1e-13)
        checked += mids.size
    assert checked == 312
    assert time.perf_counter() - start < 1.0
