"""Harper operators at rational flux: Bloch matrices, exact band sets,
the direct-space oracle, and butterflies."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_edge_mass, eigenvalue_grid

from blochspec import assembly
from blochspec.harper import (
    EDGE_MASS_MARGIN,
    EDGE_MASS_THRESHOLD,
    LAM_MAX,
    HarperParams,
    _direct_space_diag,
    _edge_weight,
    _onsite,
    butterfly,
    direct_space_bulk,
    direct_space_harper,
    farey_fractions,
    harper_spectrum,
)
from blochspec.model import EigensolverError, RationalFlux, tridiagonal

SQRT2 = math.sqrt(2.0)


def params(p, q, lam=1.0, theta=0.0):
    return HarperParams(flux=RationalFlux(p, q), lam=lam, theta=theta)


def flux_half_eigenvalue(k1, k2, lam=1.0):
    # symbolically confirmed closed form for the 2x2 Bloch matrix at flux 1/2
    return math.sqrt(4 * lam**2 * math.cos(k2) ** 2 + 2 + 2 * math.cos(k1))


# ---------------------------------------------------------------- Bloch matrices

def bloch_matrix(prm, k1, k2):
    """The Bloch matrix at (k1, k2) as the package builds it."""
    return tridiagonal(_onsite(prm, k2), np.exp(1j * k1))


def test_flux_zero_scalar_formula():
    m = bloch_matrix(params(0, 1), 0.0, 0.0)
    assert m.shape == (1, 1)
    assert np.allclose(m, [[4.0]])


@settings(max_examples=50, deadline=None)
@given(
    k1v=st.floats(0.0, 2 * np.pi, exclude_max=True),
    k2v=st.floats(0.0, 2 * np.pi, exclude_max=True),
    lam=st.floats(0.2, 3.0),
)
def test_flux_half_closed_form_eigenvalues(k1v, k2v, lam):
    w = np.linalg.eigvalsh(bloch_matrix(params(1, 2, lam), k1v, k2v))
    e = flux_half_eigenvalue(k1v, k2v, lam)
    assert np.allclose(w, [-e, e], atol=1e-12)


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        HarperParams(flux=RationalFlux(1, 2), lam=0.0)


@pytest.mark.parametrize("lam, theta", [(math.inf, 0.0), (math.nan, 0.0),
                                        (1.0, math.inf), (1.0, math.nan)])
def test_non_finite_parameters_are_rejected(lam, theta):
    with pytest.raises(ValueError):
        HarperParams(flux=RationalFlux(1, 2), lam=lam, theta=theta)


def test_lambda_is_capped_where_the_band_hull_stays_finite():
    # the padded IDS grid spans 1.1 * (4 + 4 lam); at LAM_MAX it is finite
    for q in range(1, 9):
        bands = harper_spectrum(params(1 % q, q, lam=LAM_MAX))
        assert np.isfinite(np.array(bands.intervals)).all()
    for lam in (np.nextafter(LAM_MAX, np.inf), 1e308):
        with pytest.raises(ValueError):
            params(1, 3, lam=lam)


def test_lapack_failure_carries_the_flux(monkeypatch):
    def boom(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(EigensolverError) as info:
        harper_spectrum(params(2, 5))
    assert info.value.flux == RationalFlux(2, 5)


# ---------------------------------------------------------------- exact spectra

def test_flux_zero_band():
    bands = harper_spectrum(params(0, 1))
    assert len(bands) == 1
    lo, hi = bands.intervals[0]
    assert abs(lo + 4.0) <= 1e-8 and abs(hi - 4.0) <= 1e-8


def test_flux_half_bands_touch_at_zero():
    bands = harper_spectrum(params(1, 2))
    lo, hi = bands.intervals[0][0], bands.intervals[-1][1]
    assert abs(lo + 2 * SQRT2) <= 1e-12 and abs(hi - 2 * SQRT2) <= 1e-12
    # branches touch at E = 0, so the merged set has no gap there
    assert assembly.distance_to_bands(bands, [0.0])[0] == 0.0
    assert assembly.interior_gaps(bands) == []
    # the two eigenvalue branches really do meet at zero
    evals = eigenvalue_grid(params(1, 2))
    assert abs(evals[:, :, 1].min()) <= 1e-6
    assert abs(evals[:, :, 0].max()) <= 1e-6


def test_flux_third_bands_match_cubic_closed_form():
    # band edges solve E^3 - 6E = +-4: bands [-1-s3, -2], [1-s3, s3-1], [2, 1+s3]
    s3 = math.sqrt(3.0)
    bands = harper_spectrum(params(1, 3))
    assert len(bands) == 3
    expected = [(-1 - s3, -2.0), (1 - s3, s3 - 1), (2.0, 1 + s3)]
    for (a, b), (ea, eb) in zip(bands.intervals, expected):
        assert abs(a - ea) <= 1e-12 and abs(b - eb) <= 1e-12
    # symmetric about zero
    for (a, b), (a2, b2) in zip(bands.intervals, reversed(bands.intervals)):
        assert abs(a + b2) <= 1e-12 and abs(b + a2) <= 1e-12


def test_flux_quarter_central_touching_gives_three_bands():
    bands = harper_spectrum(params(1, 4))
    assert len(bands) == 3
    assert assembly.distance_to_bands(bands, [0.0])[0] == 0.0


# ---------------------------------------------------------------- direct space

def test_direct_space_flux_zero_closed_form():
    w = direct_space_harper(params(0, 1), 100)
    j = np.arange(1, 101)
    expected = np.sort(2.0 + 2.0 * np.cos(np.pi * j / 101))
    assert np.allclose(w, expected, atol=1e-10)
    assert w.min() >= -4.01 and w.max() <= 4.01


def test_direct_space_flux_half_concentrates_on_closed_form_bands():
    w = direct_space_harper(params(1, 2), 400)
    dist = np.abs(w - np.clip(w, -2 * SQRT2, 2 * SQRT2))
    assert (dist <= 1e-2).mean() >= 0.99


def test_direct_space_small_lambda_is_free_hopping():
    w = direct_space_harper(params(1, 2, lam=1e-8), 400)
    assert w.min() >= -2 - 1e-6 and w.max() <= 2 + 1e-6


def test_direct_space_bulk_filter_drops_edge_modes():
    bulk, edge = direct_space_bulk(params(1, 3), 600)
    bands = harper_spectrum(params(1, 3))
    dist = assembly.distance_to_bands(bands, bulk)
    assert (dist <= 1e-2).mean() >= 0.99
    assert bulk.size + edge.size == 600
    assert edge.size <= 2 * 3  # at most 2q boundary modes


def nearest_gap(w):
    gap = np.full(w.size, np.inf)
    gap[:-1] = np.diff(w)
    gap[1:] = np.minimum(gap[1:], gap[:-1])
    return gap


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (3, 8), (5, 13), (8, 21), (7, 30), (13, 40)])
def test_edge_weight_matches_the_eigenvector_end_mass(p, q):
    # the weight smears each eigenvalue over eta ~ 1e-11, so it is the end mass
    # up to ~(eta / gap)^2; inside a tighter cluster eigh's split is arbitrary
    for lam in (0.5, 1.0):
        for theta in (0.0, 1.1, 4.4):
            for sites in (4 * q, 7 * q + 3):
                prm = params(p, q, lam, theta)
                w, mass = chain_edge_mass(prm, sites, 2 * q)
                diag = _direct_space_diag(prm, sites)
                ws = direct_space_harper(prm, sites)
                weight = _edge_weight(diag, ws, 2 * q)
                gap = nearest_gap(w)
                assert np.abs(weight - mass)[gap > 1e-6].max() <= 1e-5
                # a mass within the weight's error of the threshold is a tie
                apart = (gap > 1e-8) & (np.abs(mass - EDGE_MASS_THRESHOLD) > 1e-4)
                assert np.array_equal((weight > EDGE_MASS_THRESHOLD)[apart],
                                      (mass > EDGE_MASS_THRESHOLD)[apart])
                bulk, edge = direct_space_bulk(prm, sites)
                is_edge = weight > EDGE_MASS_THRESHOLD + EDGE_MASS_MARGIN
                assert np.array_equal(edge, ws[is_edge])
                assert np.array_equal(bulk, ws[~is_edge])
                # the reversed chain swaps the two ends, which count alike
                assert np.abs(_edge_weight(diag[::-1], ws, 2 * q) - weight).max() <= 1e-9


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_mirror_chain_has_the_same_edge_states(theta):
    # reversing the chain maps site n to 468 - n, i.e. theta to -theta - 2 pi 468 p/q:
    # the same spectrum with both ends swapped, which the edge rule counts alike.
    # Roundoff alone put weights within 1e-11 of 0.5 on either side of the
    # threshold here (268 against 269 edge states at theta = 0)
    p, q, sites = 39, 59, 469
    mirror = (-theta - 2 * np.pi * (sites - 1) * p / q) % (2 * np.pi)
    bulk, edge = direct_space_bulk(params(p, q, 1.0, theta), sites)
    bulk_m, edge_m = direct_space_bulk(params(p, q, 1.0, mirror), sites)
    assert edge.size == edge_m.size
    assert np.abs(np.concatenate([bulk, edge]) - np.concatenate([bulk_m, edge_m])).max() <= 1e-9


def test_edge_weight_overlapping_ends_count_twice():
    # with sites < 4q every site in both end windows counts twice, as a sum of
    # the two eigenvector masses does: sites = 2q gives weight 2 everywhere
    prm = params(2, 5)
    weight = _edge_weight(_direct_space_diag(prm, 10), direct_space_harper(prm, 10), 10)
    assert np.abs(weight - 2.0).max() <= 1e-6
    bulk, edge = direct_space_bulk(prm, 10)
    assert bulk.size == 0 and edge.size == 10


def test_edge_weight_stays_finite_at_the_largest_coupling():
    # the sweeps run in units of the spectral norm, so nothing overflows
    prm = params(2, 7, lam=LAM_MAX)
    weight = _edge_weight(_direct_space_diag(prm, 70), direct_space_harper(prm, 70), 14)
    assert np.all(np.isfinite(weight)) and np.all(weight >= 0.0)


def test_direct_space_bulk_never_forms_eigenvectors(monkeypatch):
    # the 1200-site chain is 11.5 MB; its eigenvector matrix would be as much again
    def boom(*args, **kwargs):
        raise AssertionError("eigenvectors requested")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    direct_space_bulk(params(13, 21), 60)  # warm caches outside the trace
    tracemalloc.start()
    try:
        bulk, edge = direct_space_bulk(params(13, 21), 1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bulk.size + edge.size == 1200
    assert peak < 1.5 * 1200 ** 2 * 8


def test_direct_space_needs_a_full_cell():
    with pytest.raises(ValueError):
        direct_space_harper(params(1, 5), 4)


def test_theta_override_shifts_the_diagonal():
    w0 = direct_space_harper(params(0, 1, theta=np.pi), 50)
    assert np.allclose(w0.max(), -2.0 + 2.0 * np.cos(np.pi / 51), atol=1e-10)


# ---------------------------------------------------------------- flux enumeration

def brute_force_fractions(max_q):
    out = {(0, 1)}
    for q in range(1, max_q + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.add((p, q))
    return sorted(out, key=lambda t: t[0] / t[1])


@settings(max_examples=20, deadline=None)
@given(max_q=st.integers(1, 30))
def test_farey_enumeration_matches_brute_force(max_q):
    got = [(f.p, f.q) for f in farey_fractions(max_q)]
    assert got == brute_force_fractions(max_q)


def test_farey_rejects_bad_bound():
    with pytest.raises(ValueError):
        farey_fractions(0)


# ---------------------------------------------------------------- butterflies

def test_butterfly_single_row():
    data = butterfly(1)
    assert len(data) == 1
    flux, bands = data[0]
    assert (flux.p, flux.q) == (0, 1)
    assert abs(bands.intervals[0][0] + 4.0) <= 1e-8
    assert abs(bands.intervals[0][1] - 4.0) <= 1e-8


def test_butterfly_two_rows_closed_forms():
    data = butterfly(2)
    assert [(f.p, f.q) for f, _ in data] == [(0, 1), (1, 2)]
    half = data[1][1]
    assert abs(half.intervals[0][0] + 2 * SQRT2) <= 1e-12
    assert abs(half.intervals[-1][1] - 2 * SQRT2) <= 1e-12


def test_butterfly_symmetries_moderate_q():
    tol = 1e-9
    data = butterfly(8)
    by_flux = {(f.p, f.q): bands for f, bands in data}
    for (p, q), bands in by_flux.items():
        assert len(bands) == (q if q % 2 else q - 1)
        # spectral symmetry under E -> -E at lambda = 1
        flipped = sorted((-b, -a) for a, b in bands.intervals)
        for (a, b), (fa, fb) in zip(bands.intervals, flipped):
            assert abs(a - fa) <= tol and abs(b - fb) <= tol
        # flux reflection p/q <-> (q-p)/q
        partner = by_flux[((q - p) % q, q)]
        assert len(partner) == len(bands)
        for (a, b), (pa, pb) in zip(bands.intervals, partner.intervals):
            assert abs(a - pa) <= tol and abs(b - pb) <= tol
