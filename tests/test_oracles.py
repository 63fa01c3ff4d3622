"""Independent oracles for the exact band edges: band counts, exact
symmetries and a ceiling on float64 ties, Aubry duality, Thouless' bandwidth
limit, the pinned band measures refined by Chambers' discriminant in decimal,
the k-grid sweep, random quasimomenta, and the direct-space inertia counts of
``oracle-check``."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    bloch_matrices,
    branch_ranges,
    decimal_discriminant,
    distance_to_bands,
    eigenvalue_grid,
    expected_bands,
    params,
    second_fiber_at_k2_zero,
)

from blochspec import cli, harper, model
from blochspec.harper import (
    HarperParams,
    cantor_proxy,
    farey_fractions,
    harper_spectrum,
)
from blochspec.model import RationalFlux, bands_from_edges, interior_gaps

# q*|sigma| -> 32 G / pi along Fibonacci fractions at lam = 1 (Thouless,
# PRB 28, 4272 (1983)); G is Catalan's constant.
CATALAN = 0.915965594177219015054603514932384110774
THOULESS_LIMIT = 32.0 * CATALAN / math.pi
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_band_count_is_exact_up_to_q_50(lam):
    # every open gap is counted, also one narrower than an ulp (e.g. 2/35),
    # which prints as two bands that touch
    for flux in farey_fractions(50):
        bands = harper_spectrum(HarperParams(flux=flux, lam=lam))
        assert len(bands.intervals) == expected_bands(flux.q), flux


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_mirror_rows_print_one_spectrum_up_to_q_50(lam):
    # p/q and (q - p)/q share one spectrum (n -> -n), and it is symmetric
    # under E -> -E (theta -> theta + pi with the gauge (-1)^n); both hold by
    # construction, so the two butterfly rows and the row's own mirror image
    # are equal double for double
    rows = {(flux.p, flux.q): np.array(bands.intervals)
            for flux, bands in harper.butterfly(50, lam)}
    for (p, q), bands in rows.items():
        assert np.array_equal(bands, rows[(q - p) % q, q]), f"{p}/{q}"  # 1/1 is 0/1
        assert np.array_equal(bands, -bands[::-1, ::-1]), f"{p}/{q}"


def float64_ties():
    """Gaps printed with width 0 (ROADMAP defect D) and bands printed as
    [a, a] (defect F), summed over the butterfly rows at q <= 50 and lam = 1/2, 1, 2."""
    rows = [bands for lam in (0.5, 1.0, 2.0) for _, bands in harper.butterfly(50, lam)]
    return (sum(a == b for bands in rows for a, b in interior_gaps(bands)),
            sum(a == b for bands in rows for a, b in bands.intervals))


def test_float64_ties_stay_below_the_counts_before_exact_symmetry(monkeypatch):
    # 8 gaps and 4 bands today; 11 and 10 when each fiber was solved on its own.
    # A BLAS that rounds differently may move a tie, so only the old counts bind.
    gaps, bands = float64_ties()
    assert gaps <= 11 and bands <= 10
    # edges rounded to 9 decimals tie by the hundred (960 gaps, 1380 bands)
    edge_fibers = harper._edge_fibers
    monkeypatch.setattr(harper, "_edge_fibers", lambda params: np.round(edge_fibers(params), 9))
    gaps, bands = float64_ties()
    assert gaps > 11 and bands > 10


def test_aubry_duality_up_to_q_15():
    # sigma(lam) = lam * sigma(1/lam) as sets, so every band edge scales by 2
    worst = 0.0
    for flux in farey_fractions(15):
        strong = harper_spectrum(HarperParams(flux=flux, lam=2.0))
        weak = harper_spectrum(HarperParams(flux=flux, lam=0.5))
        assert len(strong.intervals) == len(weak.intervals)
        worst = max(worst, float(np.abs(np.array(strong.intervals)
                                        - 2.0 * np.array(weak.intervals)).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("p, q", [(233, 377), (377, 610)])
def test_thouless_bandwidth_limit(p, q):
    measure = cantor_proxy([RationalFlux(p, q)])[0][1]
    assert abs(q * measure - THOULESS_LIMIT) <= 1e-3


def test_pinned_band_measures_are_refined_zeros_of_the_decimal_discriminant():
    # the fixture was pinned from this program.  Each of its band edges is
    # bracketed by +-1e-9, where D = Delta / 2 in decimal must cross its edge
    # value, and bisected; the refined band widths must sum to the row.  D is +2
    # at the top edge, and the edge values alternate in pairs below it: D
    # crosses each band from one of -+2 to the other and returns to that value
    # across each gap.  The closed centre gap at even q is a double zero of
    # D -+ 2, with no sign change, and its two edges cancel in the sum.
    fixture = json.loads((DATA / "cantor_measures.json").read_text())
    assert fixture["lam"] == 1.0  # so the edges are where D = +-2
    for p, q, measure in fixture["rows"]:
        i = np.arange(2 * q)
        keep = (q % 2 == 1) | ((i != q - 1) & (i != q))
        edges = np.sort(harper._edge_fibers(params(p, q)), axis=None)[keep]
        lo, hi = edges - 1e-9, edges + 1e-9
        target = 2 * (-1.0) ** (q + (i[keep] + 1) // 2)
        f_lo = decimal_discriminant(p, q, 1.0, lo) - target
        assert np.all(f_lo * (decimal_discriminant(p, q, 1.0, hi) - target) < 0), (p, q)
        for _ in range(40):
            mid = (lo + hi) / 2
            f_mid = decimal_discriminant(p, q, 1.0, mid) - target
            above = f_mid * f_lo > 0  # the zero lies above mid
            lo, f_lo = np.where(above, mid, lo), np.where(above, f_mid, f_lo)
            hi = np.where(above, hi, mid)
        refined = (lo + hi) / 2
        assert abs((refined[1::2] - refined[0::2]).sum() - measure) <= 1e-13, (p, q)


# Avron-van Mouche-Simon (CMP 132, 1990): at rational flux the spectrum of the
# operator with unit hopping and potential 2 lam cos has measure at least
# 4 |1 - lam|.  Along Fibonacci q >= 144 the measure meets the bound to within
# roundoff summed over q bands, so the inequality is asserted only for q <= 50.
MEASURE_BOUND_LAMS = [0.5, 0.9, 1.1, 2.0]


def fluxes_below_the_measure_bound(lam):
    bound = 4.0 * abs(1.0 - lam)
    return [flux for flux in farey_fractions(50)
            if cantor_proxy([flux], lam)[0][1] < bound]


@pytest.mark.parametrize("lam", MEASURE_BOUND_LAMS)
def test_band_measure_is_at_least_four_times_one_minus_lambda(lam):
    assert fluxes_below_the_measure_bound(lam) == []


@pytest.mark.parametrize("lam", [1.1, 2.0])
def test_band_measure_bound_catches_a_misplaced_edge_fiber(monkeypatch, lam):
    # with the second edge fiber at k2 = 0 nearly every flux falls below the bound
    monkeypatch.setattr(harper, "_edge_fibers", second_fiber_at_k2_zero)
    assert len(fluxes_below_the_measure_bound(lam)) > 0.9 * len(farey_fractions(50))


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (1, 4), (3, 7), (1, 6)])
def test_grid_through_the_extremal_points_reaches_the_exact_edges(p, q):
    # a grid divisible by 2q contains (0, 0) and (pi, pi/q)
    n = 2 * q * 4
    grid = np.array(branch_ranges(eigenvalue_grid(params(p, q), (n, n))))
    assert np.abs(np.sort(grid, axis=None)
                  - np.sort(harper._edge_fibers(params(p, q)), axis=None)).max() <= 1e-12


def random_fiber_eigenvalues(p, q, rng, count):
    """Eigenvalues of the Harper Bloch matrix at random (k1, k2), built by the
    test oracle independently of the package."""
    k1 = rng.uniform(0.0, 2 * math.pi, count)
    k2 = rng.uniform(0.0, 2 * math.pi, count)
    return np.linalg.eigvalsh(bloch_matrices(params(p, q), k1, k2))


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (1, 4), (3, 7)])
def test_random_quasimomenta_stay_inside_the_exact_bands(p, q):
    rng = np.random.default_rng(1000 * q + p)
    bands = harper_spectrum(params(p, q))
    w = random_fiber_eigenvalues(p, q, rng, 4000)
    assert distance_to_bands(bands, w).max() <= 1e-12
    # the samples reach close to every edge: the bands are not loose
    for a, b in bands.intervals:
        inside = w[(w >= a) & (w <= b)]
        slack = 0.1 * (b - a)
        assert inside.min() - a <= slack and b - inside.max() <= slack


# ---------------------------------------------------------------- direct-space counts

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_direct_space_check_passes_on_the_true_edges(lam):
    for flux in farey_fractions(20):
        check = cli._oracle_direct_space(HarperParams(flux=flux, lam=lam), 240)
        assert check["pass"] and check["max_count_excess"] == 0, flux


TRUE_EDGES = harper._edge_fibers
BENCH_CALLS = [["--flux", "1/3", "--sites", "600"], ["--flux", "13/21", "--sites", "1200"]]


def shrunk_bands(params):
    """The true band edges with every band narrowed by 1e-4 at both ends, in
    place of the edge-fiber eigenvalues, shape (2, q)."""
    q = params.flux.q
    edges = np.sort(TRUE_EDGES(params), axis=None) + np.tile([1e-4, -1e-4], q)
    return edges.reshape(2, q)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_direct_space_check_fails_on_narrowed_bands_at_every_flux(monkeypatch, lam):
    # the chains at phases 0 and pi/q reach every band edge: at the default
    # 600 sites the check sees every band narrowed by 1e-4, at every flux
    monkeypatch.setattr(harper, "_edge_fibers", shrunk_bands)
    sites = cli.build_parser().parse_args(["oracle-check"]).sites
    for flux in farey_fractions(20)[1:]:  # every reduced p/q with 2 <= q <= 20
        check = cli._oracle_direct_space(HarperParams(flux=flux, lam=lam), sites)
        assert not check["pass"] and check["max_count_excess"] > 0, flux


@pytest.mark.parametrize("wrong", [second_fiber_at_k2_zero, shrunk_bands])
@pytest.mark.parametrize("call", BENCH_CALLS, ids=["1/3", "13/21"])
def test_direct_space_check_fails_on_bands_too_narrow(monkeypatch, capsys, wrong, call):
    monkeypatch.setattr(harper, "_edge_fibers", wrong)
    assert cli.main(["oracle-check"] + call) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["unitarity"]["pass"] and checks["union"]["pass"]
    check = checks["direct_space"]
    assert check["pass"] is False and check["max_count_excess"] > 0


@pytest.fixture
def solved_stacks(monkeypatch):
    """The shapes of the matrix stacks that ``harper`` hands to ``eigensolve``, in order."""
    shapes = []

    def spy(mats, **kwargs):
        shapes.append(np.shape(mats))
        return model.eigensolve(mats, **kwargs)

    monkeypatch.setattr(harper, "eigensolve", spy)
    return shapes


def test_direct_space_check_solves_the_edge_fibers_once(solved_stacks):
    # the gap labels come from the spectrum's own gaps, not from a second solve
    check = cli._oracle_direct_space(params(13, 21), 1200)
    assert check["pass"] and solved_stacks == [(1, 21, 21)]


@pytest.mark.parametrize("p, q, stack", [(0, 1, (1, 1, 1)), (1, 2, (2, 2, 2)), (2, 5, (1, 5, 5)),
                                         (3, 8, (2, 8, 8)), (13, 21, (1, 21, 21))])
def test_edge_fibers_solve_h0_alone_at_odd_q_and_both_at_even_q(solved_stacks, p, q, stack):
    # spec(H_pi) = -spec(H_0) at odd q; at even q each row is exactly antisymmetric
    rows = harper._edge_fibers(params(p, q))
    assert solved_stacks == [stack] and np.all(np.diff(rows) >= 0)
    assert np.array_equal(rows, -rows[::-1, ::-1] if q % 2 else -rows[:, ::-1])


def test_largest_oracle_check_solves_one_matrix(solved_stacks, capsys):
    assert cli.main(["oracle-check", "--flux", "1/2047", "--sites", "2048"]) == 0
    assert solved_stacks == [(1, 2047, 2047)]


def test_butterfly_solves_each_mirror_pair_once(monkeypatch):
    solved = []

    def spy(params):
        solved.append(params.flux)
        return harper_spectrum(params)

    monkeypatch.setattr(harper, "harper_spectrum", spy)
    rows = harper.butterfly(12)
    assert solved == [flux for flux, _ in rows if 2 * flux.p <= flux.q]


def spectrum_merging_gap_1(params):
    """The true spectrum with gap 1 merged as well as the closed centre gap at even q."""
    q = params.flux.q
    closed = {1} | ({q // 2} if q % 2 == 0 else set())
    return bands_from_edges(TRUE_EDGES(params), closed)


@pytest.mark.parametrize("p, q", [(1, 3), (13, 21), (3, 8)])
def test_direct_space_check_fails_on_a_wrongly_merged_gap(monkeypatch, p, q):
    # every gap above the merged one gets too low a label, which the counts see
    monkeypatch.setattr(harper, "harper_spectrum", spectrum_merging_gap_1)
    check = cli._oracle_direct_space(params(p, q), 600)
    assert not check["pass"] and check["max_count_excess"] > 0, check
