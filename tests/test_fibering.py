"""Bloch fibering: plane-wave fiber matrices, the finite Bloch transform,
and the periodic-truncation (union of fibers) oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_circulant_from_fibers,
    branch_ranges,
    distance_to_bands,
    hill_discriminant,
    hill_discriminant_misses,
    hill_edge_misses,
    hill_half_period,
    hill_sample_misses,
    plane_wave_radius,
    plane_wave_residual_radii,
)

from blochspec import fibering, model
from blochspec.fibering import (
    DiscreteCell,
    _fiber_eigenvalues,
    band_structure,
    band_sweep,
    dense_periodic_matrix,
    discrete_bloch_transform,
    fiber_union_spectrum,
    periodic_truncation_spectrum,
)
from blochspec.model import (
    FourierPotential,
    tridiagonal,
    uniform_k_grid,
)

# Lowest eigenvalue of -u'' + 2 cos(2 pi x) u at k = 0, frozen from an
# independent N=256 plane-wave run before the build.
COSINE_GROUND_STATE = -5.0603838232251855e-02

COSINE = FourierPotential({1: 1.0, -1: 1.0})


def fiber(potential, k, cutoff):
    """The plane-wave fiber at k, as the builder hands it to the eigensolver."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibering, "eigensolve", lambda mat, k: seen.append(mat.copy()) or [0.0])
        _fiber_eigenvalues(potential, cutoff, [k], 1)
    m, = seen
    return m


def lowest(potential, k, cutoff, bands):
    """The lowest ``bands`` fiber eigenvalues at k, ascending."""
    return _fiber_eigenvalues(potential, cutoff, [k], bands)[0]


# ---------------------------------------------------------------- fiber matrices

def test_free_fiber_is_exact_diagonal():
    m = fiber(FourierPotential({}), 0.0, 1)
    assert np.allclose(np.diag(m), [4 * np.pi**2, 0.0, 4 * np.pi**2])
    assert np.allclose(m - np.diag(np.diag(m)), 0.0)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(w, [0.0, 4 * np.pi**2, 4 * np.pi**2])


@settings(max_examples=30, deadline=None)
@given(kval=st.floats(0.0, 2 * np.pi, exclude_max=True), n=st.integers(1, 8))
def test_free_fiber_eigenvalues_closed_form(kval, n):
    w = np.linalg.eigvalsh(fiber(FourierPotential({}), kval, n))
    expected = np.sort((2 * np.pi * np.arange(-n, n + 1) + kval) ** 2)
    assert np.allclose(w, expected, rtol=1e-10, atol=1e-12)


def test_cosine_ground_state_matches_high_cutoff_oracle():
    _, energies = band_sweep(COSINE, 16, bands=1, kpoints=1)  # k = 0
    assert abs(energies[0, 0] - COSINE_GROUND_STATE) <= 1e-8


def test_cutoff_must_cover_potential():
    with pytest.raises(ValueError):
        lowest(FourierPotential({3: 1.0, -3: 1.0}), 0.0, 2, 1)
    with pytest.raises(ValueError):
        band_structure(FourierPotential({3: 1.0, -3: 1.0}), 2, bands=1)


@pytest.mark.parametrize("solve", [band_structure, band_sweep])
def test_negative_cutoff_is_rejected(solve):
    with pytest.raises(ValueError, match="cutoff"):
        solve(FourierPotential({}), -1, bands=1)


def test_fiber_spectrum_examples():
    assert np.allclose(lowest(FourierPotential({}), np.pi, 2, 3),
                       [np.pi**2, np.pi**2, 9 * np.pi**2])
    assert np.allclose(lowest(FourierPotential({}), 0.0, 2, 1), [0.0])
    assert lowest(FourierPotential({}), 0.0, 0, 1).tolist() == [0.0]  # no frequency to cover
    with pytest.raises(ValueError):
        lowest(FourierPotential({}), 0.0, 2, 6)


def test_band_functions_are_continuous_in_k():
    # adjacent-grid jumps on a refined grid stay below an empirical Lipschitz bound
    ks, coarse = band_sweep(COSINE, 8, bands=4, kpoints=100)
    lip = np.abs(np.diff(coarse, axis=0)).max() / (ks[1] - ks[0])
    ks_f, fine = band_sweep(COSINE, 8, bands=4, kpoints=400)
    dk = ks_f[1] - ks_f[0]
    assert np.abs(np.diff(fine, axis=0)).max() <= 1.2 * lip * dk


def test_monotone_convergence_in_cutoff():
    # refine N in steps of 8 until the lowest bands move by less than 1e-9;
    # the change must shrink at every refinement up to that acceptance point
    potential = FourierPotential({1: 2.0, -1: 2.0, 2: 1.0, -2: 1.0})
    n = 2
    prev = lowest(potential, 1.0, n, 4)
    diffs = []
    while True:
        n += 8
        cur = lowest(potential, 1.0, n, 4)
        diffs.append(np.abs(cur - prev).max())
        prev = cur
        if diffs[-1] < 1e-9:
            break
        assert n < 120  # refinement must terminate
    assert diffs[0] > 1e-9  # the starting cutoff was genuinely unconverged
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-9


def test_free_band_structure_has_no_gaps_up_to_40():
    bands = band_structure(FourierPotential({}), 16, bands=8)
    assert model.interior_gaps(bands) == []
    # free bands [(b pi)^2, ((b+1) pi)^2] touch end to end: one interval
    assert len(bands.intervals) == 1
    assert bands.intervals[0][0] == 0.0
    assert abs(bands.intervals[-1][1] - 64 * np.pi**2) <= 1e-9


def test_cosine_band_edges_come_from_periodic_and_antiperiodic_fibers():
    bands = band_structure(COSINE, 32, bands=4)
    assert len(bands.intervals) == 4
    first_gap = model.interior_gaps(bands)[0]
    assert first_gap[1] - first_gap[0] == pytest.approx(2.0, abs=0.01)
    # the k-grid samples never leave the exact bands, even on odd grids
    for kpoints in (101, 400):
        _, energies = band_sweep(COSINE, 32, bands=4, kpoints=kpoints)
        assert distance_to_bands(bands, energies).max() <= 1e-9
    # a grid through k = pi reaches every band edge
    _, energies = band_sweep(COSINE, 32, bands=4, kpoints=100)
    got = np.sort(np.array(branch_ranges(energies)), axis=None)
    assert np.abs(got - np.sort(np.array(bands.intervals), axis=None)).max() <= 1e-9


# V = 2 cos(4 pi x) has period 1/2: as a period-1 operator every odd gap is closed
HALF_PERIOD = FourierPotential({2: 1.0})


@pytest.mark.parametrize("cutoff", [5, 16, 32, 64, 128, 256])
def test_half_period_potential_keeps_its_closed_gaps_merged(cutoff):
    # truncation and roundoff split the 5 closed gaps of the lowest 10 bands by up
    # to 9.4e-9 at cutoff 256, while the narrowest open gap is 1.41e-8: the primitive
    # period closes them, and no tolerance could tell the two apart
    bands = band_structure(HALF_PERIOD, cutoff, 10)
    gaps = sorted(b - a for a, b in model.interior_gaps(bands))
    assert gaps[0] > 1e-9
    assert gaps[-3:] == pytest.approx([2.005e-5, 1.266e-2, 2.0], rel=0.01)
    assert len(bands.intervals) == 5


@pytest.mark.parametrize("bands", [6, 8])
def test_cosine_interval_count_does_not_depend_on_the_cutoff(bands):
    # Ince: a single frequency closes no gap, so every gap prints at every cutoff,
    # down to gap 7 (true width 1e-15); the half-period test pins 2 cos 4 pi x
    counts = [len(band_structure(COSINE, c, bands).intervals) for c in (4, 8, 16, 32, 64, 128)]
    assert counts == [bands] * 6


# every frequency a multiple of g = 2, 3, 2, 1 and none at all (every gap closed)
PERIOD_FIXTURES = [HALF_PERIOD, FourierPotential({3: 1.0, 6: 0.5}),
                   FourierPotential({2: 1.0, 4: 0.3 + 0.2j}), FourierPotential({2: 1.0, 3: 0.5}),
                   FourierPotential({})]


@pytest.mark.parametrize("potential", PERIOD_FIXTURES, ids=["2", "3,6", "2,4c", "2,3", "free"])
@pytest.mark.parametrize("cutoff", [16, 64])
def test_gaps_closed_by_the_primitive_period_split_only_by_roundoff(monkeypatch, potential,
                                                                    cutoff):
    # the raw edges of every gap that band_structure passes as closed differ by at
    # most the eigensolver's error: at cutoff 64 the sum of the two edges' residual
    # radii, neither of them wide; at cutoff 16, where those radii are wide on
    # some edges of 3,6 and 2,4c, 8 n eps |H|
    seen = []
    merge = model.bands_from_edges

    def spy(edges, closed):
        seen.append((edges, closed))
        return merge(edges, closed)

    monkeypatch.setattr(fibering, "bands_from_edges", spy)
    band_structure(potential, cutoff, 12)
    (edges, closed), = seen
    order = np.argsort(edges, axis=None)
    e = edges.ravel()[order]
    splits = {j: abs(e[2 * j] - e[2 * j - 1]) for j in range(1, 12) if j in closed}
    if cutoff == 16:
        assert all(split <= plane_wave_radius(potential, cutoff) for split in splits.values())
    else:
        radius, wide = plane_wave_residual_radii(potential, cutoff, (0.0, math.pi), edges)
        r, w = radius.ravel()[order], wide.ravel()[order]
        for j, split in splits.items():
            assert split <= r[2 * j] + r[2 * j - 1] and not (w[2 * j] or w[2 * j - 1]), j


# ---------------------------------------------------------------- real fibers, one builder

# the seeded three-term potentials of the continuum benchmark (seeds 901, 902)
CONTINUUM = [FourierPotential({0: -0.1376, 1: 0.7946, -1: 0.7946, 2: 1.0835, -2: 1.0835}),
             FourierPotential({0: 0.9707, 1: 1.1469, -1: 1.1469, 2: 0.9005, -2: 0.9005})]
COMPLEX = FourierPotential({1: 1.0 - 0.5j, -1: 1.0 + 0.5j})


def oracle_sweep(potential, cutoff, bands, ks):
    """Per-k complex fibers written entry by entry, each one diagonalised on
    its own: the path the shared builder replaced."""
    freqs = np.arange(-cutoff, cutoff + 1)
    base = np.array([[potential.coefficients.get(m - n, 0) for n in freqs] for m in freqs], dtype=complex)
    energies = np.empty((len(ks), bands))
    for i, kval in enumerate(ks):
        energies[i] = np.linalg.eigvalsh(base + np.diag((2 * np.pi * freqs + kval) ** 2))[:bands]
    return energies


def assert_close(got, want):
    want = np.asarray(want)
    assert np.shape(got) == want.shape
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("potential, cutoff, bands", [(CONTINUUM[0], 64, 16),
                                                      (CONTINUUM[1], 64, 16),
                                                      (COSINE, 32, 8),
                                                      (COMPLEX, 32, 8)])
def test_shared_builder_matches_per_k_complex_oracle(potential, cutoff, bands):
    ks, energies = band_sweep(potential, cutoff, bands, kpoints=1001)
    assert_close(energies, oracle_sweep(potential, cutoff, bands, ks))
    bandset = band_structure(potential, cutoff, bands)
    # gap n is closed unless the gcd g of the frequencies divides n (all closed at g = 0)
    g = math.gcd(*potential.coefficients)
    closed = {n for n in range(bands) if not g or n % g}
    oracle = model.bands_from_edges(oracle_sweep(potential, cutoff, bands, (0.0, math.pi)),
                                    closed)
    assert len(bandset.intervals) == len(oracle.intervals)
    assert_close(bandset.intervals, oracle.intervals)
    # the samples never leave the band intervals built from the same arithmetic
    assert distance_to_bands(bandset, energies).max() <= 1e-9 * np.abs(energies).max()


# ---------------------------------------------------------------- Hill's discriminant

# each potential with the sorted positions (1 = lowest) of its cutoff-8 edges,
# of 17 bands, that the ODE flags: the top of the 17-dimensional window is
# truncation-limited (defect H).  These edges lie 2.6e-10 to 2.7e-3 from the
# ODE's zeros, the edges below them at most 3.9e-11, and the radius
# 8 n eps ||H|| is 8.6e-11
HILL_CASES = {"cosine": (COSINE, list(range(27, 35))),
              "901": (CONTINUUM[0], list(range(19, 35))),
              "902": (CONTINUUM[1], list(range(19, 35)))}

# the cutoffs whose values take their own residual radius; below them the
# residual radius is wide on values the ODE shows accurate (the top cosine
# edges at cutoff 16, every edge of 901 and 902 at cutoff 8)
RESIDUAL_CUTOFFS = (32, 64)


def edge_ranks(edges) -> np.ndarray:
    """Position of each edge in the sorted list of all of them, 1 = lowest."""
    return np.argsort(np.argsort(edges, axis=None)).reshape(np.shape(edges)) + 1


def nudged(solved) -> list:
    """(cutoff, values) for the values at each residual cutoff, moved down and up by 1e-9."""
    return [(c, values + shift) for c, values in solved.items() if c in RESIDUAL_CUTOFFS
            for shift in (-1e-9, 1e-9)]


def block_radii(potential, ks, blocks) -> tuple:
    """(radius, wide) of the values of (cutoff, values) blocks at their k, joined
    along axis 1: each value's own residual radius at ``RESIDUAL_CUTOFFS``, else
    8 n eps ||H||, which is never wide."""
    pairs = [plane_wave_residual_radii(potential, c, ks, values) if c in RESIDUAL_CUTOFFS
             else (np.full(values.shape, plane_wave_radius(potential, c)),
                   np.zeros(values.shape, dtype=bool))
             for c, values in blocks]
    return tuple(np.concatenate(a, axis=1) for a in zip(*pairs))


@pytest.mark.parametrize("name", HILL_CASES)
def test_band_edges_are_zeros_of_hill_parity_functions(name):
    # every k = 0 edge is a zero of u1'(1/2) or u2(1/2), every k = pi edge one of
    # u1(1/2) or u2'(1/2), found by an ODE with no plane-wave basis.  The split
    # needs V even, so every potential here has real coefficients; a complex
    # one makes V real but not even.  At cutoffs 32 and 64 no edge's radius is
    # wide, and every edge moved by -/+1e-9, its radius recomputed there, is wide
    (potential, truncated), ks = HILL_CASES[name], (0.0, math.pi)
    solved = {c: _fiber_eigenvalues(potential, c, ks, 17) for c in (8, 16, 32, 64)}
    radius, wide = block_radii(potential, ks, solved.items())
    missed, _ = hill_edge_misses(potential, np.concatenate(list(solved.values()), axis=1), radius)
    flagged = np.split(missed | wide, len(solved), axis=1)
    assert [sorted(edge_ranks(e)[f].tolist()) for e, f in zip(solved.values(), flagged)] == \
        [truncated, [], [], []]
    # a radius taken at a moved edge still brackets an eigenvalue, so its width
    # flags the move (7.8e-10 or more against 1.4e-10 and 5.7e-10)
    assert block_radii(potential, ks, nudged(solved))[1].all()


@pytest.mark.parametrize("name", HILL_CASES)
def test_hill_oracle_flags_planted_faults(name):
    potential = HILL_CASES[name][0]
    radius = plane_wave_radius(potential, 16)
    edges = _fiber_eigenvalues(potential, 16, (0.0, math.pi), 17)
    missed, r = hill_edge_misses(potential, edges, radius)
    assert not missed.any()
    # every edge moved by 10 r down and up, and the k = pi fiber solved at k = 0
    wrong = _fiber_eigenvalues(potential, 16, (0.0, 0.0), 17)
    planted = np.concatenate([edges - 10 * r, edges + 10 * r, wrong], axis=1)
    down, up, swapped = np.split(hill_edge_misses(potential, planted, radius)[0], 3, axis=1)
    assert down.all() and up.all()
    assert swapped.tolist() == [[False] * 17, [True] * 17]  # only the k = pi row is wrong


def test_full_period_discriminant_matches_the_half_period_split():
    # for an even V, Delta = u1(1) + u2'(1) = 2 (u1 u2' + u1' u2) at x = 1/2; the
    # full period takes twice the steps, so both step with the same length
    energies = np.linspace(-2.0, 700.0, 101)
    for potential in (COSINE, CONTINUUM[0]):
        u1, du1, u2, du2 = hill_half_period(potential, energies, 1600)
        split = 2 * (u1 * du2 + du1 * u2)
        full = hill_discriminant(potential, energies, 3200)
        assert np.abs(full - split).max() <= 1e-13 * np.abs(split).max()


# complex coefficients make V real but not even, so only the full period checks them
COMPLEX_HILL = {"1c": FourierPotential({1: 1 + 0.5j}),
                "1,2c": FourierPotential({1: 1, 2: 0.3 - 0.7j})}


def test_discriminant_memory_grows_with_the_energies_not_the_steps():
    # the ODE forms its (step, energy) coefficients a block of steps at a time;
    # all 6400 steps at once held about 176 MB for these 340 energies
    energies = np.linspace(-2.0, 700.0, 340)
    tracemalloc.start()
    try:
        hill_discriminant(COMPLEX_HILL["1c"], energies, 6400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


@pytest.mark.parametrize("name", COMPLEX_HILL)
def test_complex_band_edges_are_zeros_of_the_full_period_discriminant(name):
    # every k = 0 edge brackets a zero of Delta - 2, every k = pi edge one of Delta + 2
    potential = COMPLEX_HILL[name]
    radius = plane_wave_radius(potential, 32)
    edges = _fiber_eigenvalues(potential, 32, (0.0, math.pi), 8)
    missed, r = hill_discriminant_misses(potential, edges, radius)
    assert not missed.any()
    # each edge of a gap wider than 1e-3, moved up by 10 r, is flagged.  At a
    # narrower gap both zeros of Delta -/+ 2 lie in the ODE's noise, where a moved
    # edge cannot be told from a true one, so those edges are neither moved nor
    # asserted.  The edge of rank i (1 = lowest) borders gap i // 2: gap 0, below
    # the spectrum, is unbounded, and gap 8, above the top band, is not computed
    e = np.sort(edges, axis=None)
    widths = np.concatenate([[math.inf], np.diff(e)[1::2], [0.0]])
    wide = widths[edge_ranks(edges) // 2] > 1e-3
    planted = np.where(wide, edges + 10 * r, edges)
    assert hill_discriminant_misses(potential, planted, radius)[0][wide].all()


# k at indices 8, 17, 25, 33 and 42 of the 101-point grid, strictly inside (0, pi)
INTERIOR_KS = uniform_k_grid(101)[[8, 17, 25, 33, 42]]

# each potential with its cutoffs and the 0-based bands, of 17, whose every
# interior sample the ODE flags at cutoff 8 (defect H).  A complex potential
# needs the full period at twice the steps, so it runs at two cutoffs only
SAMPLE_CASES = {"cosine": (COSINE, (8, 16, 32, 64), range(13, 17)),
                "901": (CONTINUUM[0], (8, 16, 32, 64), range(9, 17)),
                "902": (CONTINUUM[1], (8, 16, 32, 64), range(9, 17)),
                "1c": (COMPLEX_HILL["1c"], (8, 32), range(13, 17)),
                "1,2c": (COMPLEX_HILL["1,2c"], (8, 32), range(9, 17))}


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_interior_band_samples_are_roots_of_the_discriminant(name):
    # at k strictly inside (0, pi) every sample E_b(k) is a simple root of
    # Delta(E) - 2 cos k, and it lies in band b: between sorted edges 2b and 2b + 1.
    # At cutoffs 32 and 64 no sample's radius is wide, and every sample moved by
    # -/+1e-9, its radius recomputed there, is wide
    potential, cutoffs, truncated = SAMPLE_CASES[name]
    solved = {c: _fiber_eigenvalues(potential, c, (0.0, math.pi, *INTERIOR_KS), 17)
              for c in cutoffs}
    for c, rows in solved.items():
        rad = plane_wave_radius(potential, c)
        e = np.sort(rows[:2], axis=None)
        assert np.all((rows[2:] >= e[0::2] - rad) & (rows[2:] <= e[1::2] + rad))
    samples = {c: rows[2:] for c, rows in solved.items()}
    values = np.concatenate(list(samples.values()), axis=1)
    radius, wide = block_radii(potential, INTERIOR_KS, samples.items())
    missed, r = hill_sample_misses(potential, INTERIOR_KS, values, radius)
    flagged = np.zeros_like(missed)
    flagged[:, list(truncated)] = True  # the first 17 columns are cutoff 8
    assert np.array_equal(missed | wide, flagged)
    # every sample at the second cutoff moved up by 10 r, and for the cosine down too
    second = slice(17, 34)
    signs = (1, -1) if name == "cosine" else (1,)
    planted = np.concatenate([values[:, second] + sign * 10 * r[:, second] for sign in signs],
                             axis=1)
    assert hill_sample_misses(potential, INTERIOR_KS, planted,
                              np.tile(radius[:, second], len(signs)))[0].all()
    # as for the edges, the width of a radius taken at a moved sample flags it
    assert block_radii(potential, INTERIOR_KS, nudged(samples))[1].all()


@pytest.mark.parametrize("potential", CONTINUUM, ids=["901", "902"])
def test_continuum_interval_count_does_not_depend_on_the_cutoff(potential):
    # gcd 1 closes no gap, so all 16 bands print at every cutoff, also where a
    # gap's two edges come out as the same double (cutoff 32 for 901, 16 for 902)
    counts = [len(band_structure(potential, c, 16).intervals)
              for c in (8, 16, 24, 32, 48, 64, 128, 256)]
    assert counts == [16] * 8


def test_fibers_are_real_exactly_when_every_coefficient_is():
    freqs = np.arange(-4, 5)
    for potential, dtype in ((COSINE, float), (CONTINUUM[0], float), (COMPLEX, complex),
                             (FourierPotential({}), float)):
        mat = fiber(potential, 1.0, 4)
        assert mat.dtype == dtype
        assert np.array_equal(mat, mat.conj().T)  # Hermitian by construction
        want = np.array([[potential.coefficients.get(m - n, 0) + (m == n) * (2 * np.pi * m + 1.0) ** 2
                          for n in freqs] for m in freqs])
        assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max()


def test_band_sweep_never_stacks_the_fibers():
    # one (1001, 129, 129) float stack is 133 MB; the per-k loop needs a few
    band_sweep(CONTINUUM[0], 64, 16, kpoints=3)  # warm caches outside the trace
    tracemalloc.start()
    try:
        band_sweep(CONTINUUM[0], 64, 16, kpoints=1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("potential", [COSINE, CONTINUUM[0], COMPLEX, FourierPotential({})],
                         ids=["cosine", "continuum", "complex", "zero"])
@pytest.mark.parametrize("kpoints", [1, 2, 3, 4, 100, 101, 1001])
def test_band_sweep_rows_past_pi_copy_their_mirror(potential, kpoints):
    # E(k) = E(2 pi - k) for a real potential: row i and row n - i are one sample
    ks, energies = band_sweep(potential, 8, bands=4, kpoints=kpoints)
    assert energies.shape == (kpoints, 4)
    assert np.all(ks[:kpoints // 2 + 1] <= math.pi)
    for i in range(1, kpoints):
        assert np.all(energies[i] == energies[kpoints - i])


@pytest.mark.parametrize("kpoints", [1, 2, 3, 4, 100, 101, 1001])
def test_band_sweep_solves_only_the_fibers_on_zero_to_pi(monkeypatch, kpoints):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    band_sweep(COSINE, 4, bands=2, kpoints=kpoints)
    assert len(calls) == kpoints // 2 + 1


def test_band_sweep_past_pi_keeps_the_lowest_kinetic_plane_waves():
    # with every band kept, the window -N..N at k > pi would drop m = -N-1 for the
    # costlier m = N and miss the top band by 6e-2; the mirrored sample does not
    _, coarse = band_sweep(COSINE, 32, bands=65, kpoints=101)
    _, fine = band_sweep(COSINE, 64, bands=65, kpoints=101)
    assert np.all(np.abs(coarse - fine) <= 1e-7 * np.maximum(1.0, np.abs(fine)))


# ---------------------------------------------------------------- Bloch transform

def test_transform_of_delta_is_flat():
    cell = DiscreteCell(M=4, onsite=(0.0,))
    f = np.zeros(4)
    f[0] = 1.0
    blocks = discrete_bloch_transform(f, cell)
    assert np.allclose(blocks, 0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cell_rejects_non_finite_onsite_energies(value):
    # LAPACK returns finite eigenvalues for a 2 x 2 fiber with a NaN on its
    # diagonal, so the union oracle would otherwise hide the bad input
    with pytest.raises(ValueError, match="not all finite"):
        DiscreteCell(M=3, onsite=(value, 0.0))


def test_cell_takes_only_an_integer_cell_count():
    # M = 2.5 would make a "5-site" ring whose fiber union has 6 eigenvalues
    with pytest.raises(ValueError, match="integer M"):
        DiscreteCell(M=2.5, onsite=(0.3, -0.7))
    cell = DiscreteCell(M=np.int64(3), onsite=(0.3, -0.7))
    assert np.array_equal(fiber_union_spectrum(cell),
                          fiber_union_spectrum(DiscreteCell(M=3, onsite=(0.3, -0.7))))


def test_transform_rejects_wrong_length():
    with pytest.raises(ValueError):
        discrete_bloch_transform(np.zeros(5), DiscreteCell(M=3, onsite=(0.0, 0.0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.integers(1, 4), m=st.integers(1, 16))
def test_transform_is_unitary(seed, q, m):
    rng = np.random.default_rng(seed)
    cell = DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2, q)))
    f = rng.normal(size=cell.sites) + 1j * rng.normal(size=cell.sites)
    blocks = discrete_bloch_transform(f, cell)
    norm_in = np.vdot(f, f).real
    norm_out = np.vdot(blocks, blocks).real
    assert abs(norm_out - norm_in) <= 1e-12 * norm_in


def test_transform_decomposes_periodic_eigenvectors():
    # blocks of a big-operator eigenvector are fiber eigenvectors (same eigenvalue)
    cell = DiscreteCell(M=6, onsite=(0.3, -0.7))
    big = dense_periodic_matrix(cell)
    w, v = np.linalg.eigh(big)
    fibers = tridiagonal(cell.onsite, np.exp(1j * uniform_k_grid(cell.M)))
    for idx in range(cell.sites):
        blocks = discrete_bloch_transform(v[:, idx], cell)
        for m in range(cell.M):
            b = blocks[m]
            if np.linalg.norm(b) > 1e-8:
                assert np.linalg.norm(fibers[m] @ b - w[idx] * b) <= 1e-8


# ---------------------------------------------------------------- periodic truncation

def test_pure_laplacian_circulant_spectrum():
    cell = DiscreteCell(M=6, onsite=(0.0,))
    w = periodic_truncation_spectrum(cell)
    expected = np.sort(2 * np.cos(2 * np.pi * np.arange(6) / 6))
    assert np.allclose(w, expected, atol=1e-12)
    # each fiber is the 1x1 value 2 cos k
    assert np.allclose(fiber_union_spectrum(cell), expected, atol=1e-12)


def test_single_cell_reduces_to_zero_phase_fiber():
    cell = DiscreteCell(M=1, onsite=(0.1, 0.2, 0.3))
    w = periodic_truncation_spectrum(cell)
    assert np.allclose(w, np.linalg.eigvalsh(tridiagonal(cell.onsite, 1.0)), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-3, 3), m=st.integers(1, 10))
def test_two_site_cell_matches_fiber_union(a, m):
    cell = DiscreteCell(M=m, onsite=(a, -a))
    direct = periodic_truncation_spectrum(cell)
    union = fiber_union_spectrum(cell)
    assert np.abs(direct - union).max() <= 1e-10


def test_tridiagonal_builder_reproduces_bond_by_bond_periodic_matrix():
    # one closing bond of phase 1 is the periodic chain, entry for entry, down to
    # q*M = 1 and 2, where the bonds land on the diagonal or on each other
    rng = np.random.default_rng(17)
    for q in range(1, 5):
        for m in range(1, 7):
            cell = DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2, q)))
            built = tridiagonal(np.tile(cell.onsite, m), 1.0)
            assert np.array_equal(built, dense_periodic_matrix(cell))


def test_batched_fiber_union_equals_the_per_fiber_loop():
    rng = np.random.default_rng(23)
    for q in range(1, 5):
        for m in range(1, 7):
            cell = DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2, q)))
            loop = [np.linalg.eigvalsh(tridiagonal(cell.onsite, np.exp(1j * k)))
                    for k in uniform_k_grid(m)]
            assert np.array_equal(fiber_union_spectrum(cell), np.sort(np.concatenate(loop)))


def test_block_circulant_synthesis_agrees_with_real_space():
    cell = DiscreteCell(M=5, onsite=(0.4, -0.2, 1.1))
    direct = periodic_truncation_spectrum(cell)
    fibers = tridiagonal(cell.onsite, np.exp(1j * uniform_k_grid(cell.M)))
    synthesized = np.linalg.eigvalsh(block_circulant_from_fibers(fibers))
    assert np.abs(direct - synthesized).max() <= 1e-10
    assert np.abs(direct - fiber_union_spectrum(cell)).max() <= 1e-10
