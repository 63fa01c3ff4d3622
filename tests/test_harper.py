"""Harper operators at rational flux: Bloch matrices, exact band sets,
the direct-space oracle, butterflies, and the Cantor proxy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bloch_matrices,
    chain_eigenvalues,
    distance_to_bands,
    eigenvalue_grid,
    params,
)

from blochspec import harper, model
from blochspec.harper import (
    LAM_MAX,
    HarperParams,
    _edge_fibers,
    butterfly,
    cantor_proxy,
    direct_space_count,
    farey_fractions,
    harper_spectrum,
)
from blochspec.model import RationalFlux

SQRT2 = math.sqrt(2.0)


def flux_half_eigenvalue(k1, k2, lam=1.0):
    # symbolically confirmed closed form for the 2x2 Bloch matrix at flux 1/2
    return math.sqrt(4 * lam**2 * math.cos(k2) ** 2 + 2 + 2 * math.cos(k1))


# ---------------------------------------------------------------- Bloch matrices

def test_flux_zero_scalar_formula():
    m = bloch_matrices(params(0, 1), 0.0, 0.0)
    assert m.shape == (1, 1)
    assert np.allclose(m, [[4.0]])


@settings(max_examples=50, deadline=None)
@given(
    k1v=st.floats(0.0, 2 * np.pi, exclude_max=True),
    k2v=st.floats(0.0, 2 * np.pi, exclude_max=True),
    lam=st.floats(0.2, 3.0),
)
def test_flux_half_closed_form_eigenvalues(k1v, k2v, lam):
    w = np.linalg.eigvalsh(bloch_matrices(params(1, 2, lam), k1v, k2v))
    e = flux_half_eigenvalue(k1v, k2v, lam)
    assert np.allclose(w, [-e, e], atol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_edge_fibers_match_the_oracle_bloch_matrices(lam):
    # the package's two fibers against the test oracle's Bloch matrices at
    # (k1, k2) = (0, 0) and (pi, pi/q), built entry by entry
    for flux in farey_fractions(20):
        prm = HarperParams(flux=flux, lam=lam)
        want = np.linalg.eigvalsh(bloch_matrices(prm, [0.0, math.pi], [0.0, math.pi / flux.q]))
        assert np.abs(_edge_fibers(prm) - want).max() <= 1e-12, flux


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        HarperParams(flux=RationalFlux(1, 2), lam=0.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_parameters_are_rejected(lam):
    with pytest.raises(ValueError):
        HarperParams(flux=RationalFlux(1, 2), lam=lam)


def test_lambda_is_capped_where_the_band_hull_stays_finite():
    # the padded IDS grid spans 1.1 * (4 + 4 lam); at LAM_MAX it is finite
    for q in range(1, 9):
        bands = harper_spectrum(params(1 % q, q, lam=LAM_MAX))
        assert np.isfinite(np.array(bands.intervals)).all()
    for lam in (np.nextafter(LAM_MAX, np.inf), 1e308):
        with pytest.raises(ValueError):
            params(1, 3, lam=lam)


# ---------------------------------------------------------------- exact spectra

def test_flux_zero_band():
    bands = harper_spectrum(params(0, 1))
    assert len(bands.intervals) == 1
    lo, hi = bands.intervals[0]
    assert abs(lo + 4.0) <= 1e-8 and abs(hi - 4.0) <= 1e-8


def test_flux_half_bands_touch_at_zero():
    bands = harper_spectrum(params(1, 2))
    lo, hi = bands.intervals[0][0], bands.intervals[-1][1]
    assert abs(lo + 2 * SQRT2) <= 1e-12 and abs(hi - 2 * SQRT2) <= 1e-12
    # branches touch at E = 0, so the merged set has no gap there
    assert distance_to_bands(bands, [0.0])[0] == 0.0
    assert model.interior_gaps(bands) == []
    # the two eigenvalue branches really do meet at zero
    evals = eigenvalue_grid(params(1, 2))
    assert abs(evals[:, :, 1].min()) <= 1e-6
    assert abs(evals[:, :, 0].max()) <= 1e-6


def test_flux_third_bands_match_cubic_closed_form():
    # band edges solve E^3 - 6E = +-4: bands [-1-s3, -2], [1-s3, s3-1], [2, 1+s3]
    s3 = math.sqrt(3.0)
    bands = harper_spectrum(params(1, 3))
    assert len(bands.intervals) == 3
    expected = [(-1 - s3, -2.0), (1 - s3, s3 - 1), (2.0, 1 + s3)]
    for (a, b), (ea, eb) in zip(bands.intervals, expected):
        assert abs(a - ea) <= 1e-12 and abs(b - eb) <= 1e-12
    # symmetric about zero
    for (a, b), (a2, b2) in zip(bands.intervals, reversed(bands.intervals)):
        assert abs(a + b2) <= 1e-12 and abs(b + a2) <= 1e-12


def test_flux_quarter_central_touching_gives_three_bands():
    bands = harper_spectrum(params(1, 4))
    assert len(bands.intervals) == 3
    assert distance_to_bands(bands, [0.0])[0] == 0.0


# ---------------------------------------------------------------- direct space

def test_direct_space_flux_zero_closed_form():
    # the free chain of 100 sites: eigenvalues 2 + 2 cos(pi j / 101), j = 1..100
    w = np.sort(2.0 + 2.0 * np.cos(np.pi * np.arange(1, 101) / 101))
    e = np.concatenate([[-4.01], w - 1e-9, w + 1e-9, [4.01]])
    assert np.array_equal(direct_space_count(params(0, 1), 100, e)[0], np.searchsorted(w, e))


def test_direct_space_flux_half_concentrates_on_closed_form_bands():
    # every eigenvalue lies in the band hull [-2 sqrt 2, 2 sqrt 2]
    count = direct_space_count(params(1, 2), 400, [-2 * SQRT2 - 1e-12, 2 * SQRT2 + 1e-12])
    assert count.tolist() == [[0, 400], [0, 400]]


def test_direct_space_small_lambda_is_free_hopping():
    count = direct_space_count(params(1, 2, lam=1e-8), 400, [-2 - 1e-6, 2 + 1e-6])
    assert count.tolist() == [[0, 400], [0, 400]]


def test_direct_space_gap_counts_are_bulk_plus_boundary_modes():
    # 600 sites are m = 200 cells of flux 1/3: below gap j the bulk holds j*m
    # eigenvalues, and the check's slack of one state either way absorbs the
    # boundary modes: the chain at phase pi/3 has one in the upper gap
    bands = harper_spectrum(params(1, 3))
    mid = [(a + b) / 2 for a, b in model.interior_gaps(bands)]
    excess = direct_space_count(params(1, 3), 600, mid) - [200, 400]
    assert excess.tolist() == [[0, 0], [0, 1]]


PAIRS = [(1, 3), (2, 5), (3, 8), (5, 13), (8, 21), (7, 30), (13, 40)]


@pytest.mark.parametrize("p, q", PAIRS)
def test_direct_space_count_matches_the_dense_count(p, q):
    # Sylvester's inertia against the eigenvalues of both chains written out
    # entry by entry, 1e-9 on either side of every eigenvalue of each
    rng = np.random.default_rng(100 * q + p)
    for lam in (0.01, 0.5, 1.0, 2.0, 30.0):
        for sites in (q, int(rng.integers(q, 301)), 300):
            prm = params(p, q, lam)
            for row, phase in enumerate((0.0, np.pi / q)):
                w = chain_eigenvalues(prm, sites, phase)
                e = np.concatenate([w - 1e-9, w + 1e-9])
                count = direct_space_count(prm, sites, e)[row]
                assert np.array_equal(count, np.searchsorted(w, e))


@pytest.mark.parametrize("row", [0, 1])
def test_mirror_chain_has_the_same_edge_states(row):
    # reversing the chain maps site n to 468 - n, i.e. the phase to -phase -
    # 2 pi 468 p/q: the same spectrum, written out densely from the other end,
    # so every gap holds the same number of boundary states
    p, q, sites = 39, 59, 469
    mirror = -row * np.pi / q - 2 * np.pi * (sites - 1) * p / q
    gaps = np.array(model.interior_gaps(harper_spectrum(params(p, q))))
    e = np.concatenate([gaps.mean(axis=1), gaps[:, 0] + 1e-9, gaps[:, 1] - 1e-9])
    count = direct_space_count(params(p, q), sites, e)[row]
    w = chain_eigenvalues(params(p, q), sites, mirror)
    assert np.array_equal(count, np.searchsorted(w, e))


def test_direct_space_count_at_the_largest_coupling():
    # pivots of size lam ~ max float / 8 and their reciprocals stay finite; the
    # eigenvalues of each chain sit in four clusters at its four onsite
    # values, probed between
    prm = params(2, 7, lam=LAM_MAX)
    clusters = ([0, 20, 40, 60, 70], [0, 10, 30, 50, 70])
    for row, phase in enumerate((0.0, np.pi / 7)):
        w = chain_eigenvalues(prm, 70, phase)
        apart = np.diff(w) > 1e-3 * LAM_MAX
        e = np.concatenate([[-4 * LAM_MAX], ((w[1:] + w[:-1]) / 2)[apart], [4 * LAM_MAX]])
        count = direct_space_count(prm, 70, e)[row]
        assert count.tolist() == clusters[row]
        assert np.array_equal(count, np.searchsorted(w, e))


def test_direct_space_count_builds_no_matrix_and_calls_no_lapack(monkeypatch):
    # nor any matrix: the dense 1200-site chain would be 11.5 MB, and the
    # count holds a few rows of floats
    def boom(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    monkeypatch.setattr(np.linalg, "eigh", boom)
    e = np.linspace(-4.0, 4.0, 64)
    direct_space_count(params(13, 21), 60, e)  # warm caches outside the trace
    tracemalloc.start()
    try:
        count = direct_space_count(params(13, 21), 1200, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count[:, -1].tolist() == [1200, 1200]
    assert peak < 200 * 1024


def test_direct_space_needs_a_full_cell():
    with pytest.raises(ValueError):
        direct_space_count(params(1, 5), 4, [0.0])


@pytest.mark.parametrize("energies, message", [
    ([[0.0], [1.0]], "one-dimensional"),  # broadcast against the two chains
    (0.5, "one-dimensional"),
    ([0.0, np.nan], "NaN"),               # counts 0 in both chains
], ids=["column", "scalar", "nan"])
def test_direct_space_count_checks_its_energies_before_the_chains(energies, message):
    # 0 sites fails the site-count check, so the energy message shows that the
    # energies are checked first
    with pytest.raises(ValueError, match=message):
        direct_space_count(params(1, 3), 0, energies)


def test_direct_space_count_takes_infinities():
    assert direct_space_count(params(1, 3), 30, [-np.inf, np.inf]).tolist() == [[0, 30]] * 2


def test_direct_space_count_takes_only_an_integer_site_count():
    # 30.5 sites would count the 31-site chain of np.arange(30.5)
    with pytest.raises(ValueError, match="integer"):
        direct_space_count(params(1, 3), 30.5, [0.0])
    assert np.array_equal(direct_space_count(params(1, 3), np.int64(30), [0.0, 1.0]),
                          direct_space_count(params(1, 3), 30, [0.0, 1.0]))


def test_second_row_counts_the_chain_at_phase_pi_over_q():
    # at flux 0/1 the phase pi/q = pi turns the diagonal +2 into -2: top
    # eigenvalue -2 + 2 cos(pi / 51), below every eigenvalue of row 0
    top = -2.0 + 2.0 * np.cos(np.pi / 51)
    count = direct_space_count(params(0, 1), 50, [top - 1e-9, top + 1e-9])
    assert count.tolist() == [[0, 0], [49, 50]]


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


def test_farey_takes_only_an_integer_bound():
    with pytest.raises(ValueError, match="integer"):
        farey_fractions(2.5)
    assert farey_fractions(np.int64(7)) == farey_fractions(7)


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
        assert len(bands.intervals) == (q if q % 2 else q - 1)
        # spectral symmetry under E -> -E at lambda = 1
        flipped = sorted((-b, -a) for a, b in bands.intervals)
        for (a, b), (fa, fb) in zip(bands.intervals, flipped):
            assert abs(a - fa) <= tol and abs(b - fb) <= tol
        # flux reflection p/q <-> (q-p)/q
        partner = by_flux[((q - p) % q, q)]
        assert len(partner.intervals) == len(bands.intervals)
        for (a, b), (pa, pb) in zip(bands.intervals, partner.intervals):
            assert abs(a - pa) <= tol and abs(b - pb) <= tol


# ---------------------------------------------------------------- cantor proxy

def test_cantor_proxy_single_flux():
    rows = cantor_proxy([RationalFlux(0, 1)])
    assert rows[0][1] == pytest.approx(8.0, abs=1e-8)


def test_cantor_proxy_sums_band_widths():
    # the measure is the sum of the spectrum's band widths in band order,
    # so every printed measure keeps its bytes
    fluxes = [RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 8)]
    for lam in (0.5, 1.0, 2.0):
        for flux, measure in cantor_proxy(fluxes, lam=lam):
            intervals = harper.harper_spectrum(HarperParams(flux=flux, lam=lam)).intervals
            assert len(intervals) > 1
            assert measure == sum(b - a for a, b in intervals)


def test_cantor_proxy_requires_increasing_q():
    with pytest.raises(ValueError):
        cantor_proxy([RationalFlux(1, 3), RationalFlux(1, 2)])


def test_larger_coupling_widens_flux_half_spectrum():
    rows = cantor_proxy([RationalFlux(1, 2)], lam=1.0)
    rows2 = cantor_proxy([RationalFlux(1, 2)], lam=2.0)
    m1, m2 = rows[0][1], rows2[0][1]
    assert m1 == pytest.approx(4 * math.sqrt(2.0), abs=1e-12)
    assert m2 == pytest.approx(4 * math.sqrt(5.0), abs=1e-12)
    assert m2 > m1
