"""The Chambers IDS: its input checks and closed-form values, and independent
oracles: k-grid eigenvalue counts, convergence in the quadrature, Aubry duality,
exact gap labels, a high-precision discriminant, monotonicity, large q, and the
canonical trace of spectral projections (trace quantization: the IDS in a gap
equals the canonical trace of the spectral projection there)."""

import json
import math
import re
import time

import numpy as np
import pytest

from oracles import (
    bloch_matrix_family,
    canonical_trace,
    decimal_discriminant,
    eigenvalue_grid,
    expected_bands,
    params,
    ring_eigenvalues,
    spectral_projections,
)

from blochspec import harper
from blochspec.cli import main
from blochspec.harper import (
    HarperParams,
    _torus_fraction,
    farey_fractions,
    harper_spectrum,
    ids,
)
from blochspec.model import RationalFlux, interior_gaps


# ---------------------------------------------------------------- input checks and closed forms

@pytest.mark.parametrize("egrid, message", [
    ([1.0, 0.0], "ascending"),
    ([0.0, np.nan], "NaN"),
    ([[0.0, 1.0], [2.0, 3.0]], "one-dimensional"),
    (0.5, re.escape("one-dimensional, got shape ()")),  # inside the middle band of flux 1/3
    (1.5, re.escape("one-dimensional, got shape ()")),  # in the upper gap of flux 1/3
    ([[-1.0, 0.0], [1.0, 2.5]], re.escape("one-dimensional, got shape (2, 2)")),
], ids=["descending", "nan", "2d", "scalar-in-band", "scalar-in-gap", "2d-grid"])
def test_ids_checks_its_grid_before_solving(monkeypatch, egrid, message):
    def no_edges(_params):
        raise AssertionError("the edge fibers were solved before the grid was checked")

    monkeypatch.setattr(harper, "_edge_fibers", no_edges)
    with pytest.raises(ValueError, match=message):
        ids(HarperParams(flux=RationalFlux(1, 3)), egrid=egrid)


def test_ids_above_and_below_spectrum():
    params = HarperParams(flux=RationalFlux(0, 1))
    _, values = ids(params, egrid=np.array([-4.5, 4.0 + 1e-6]), kgrid=32)
    assert values.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_ids_of_mirror_fluxes_is_byte_identical(lam):
    # p/q and (q - p)/q have the same edge fibers, solved once as min(p, q - p)/q
    for p, q in [(1, 3), (2, 5), (3, 8), (5, 13), (13, 21), (21, 34), (34, 55), (233, 377)]:
        energies, values = ids(params(p, q, lam))
        mirror_energies, mirror_values = ids(params(q - p, q, lam))
        assert energies.tobytes() == mirror_energies.tobytes(), (p, q)
        assert values.tobytes() == mirror_values.tobytes(), (p, q)


def test_ids_half_filling_at_flux_half_touching_point():
    # the two bands touch at 0 (up to a roundoff-sized gap), where symmetry pins
    # the value whichever side of that gap 0 falls on
    params = HarperParams(flux=RationalFlux(1, 2))
    _, values = ids(params, egrid=np.array([0.0]), kgrid=63)
    assert abs(values[0] - 0.5) <= 1e-6


def test_ids_default_grid_spans_padded_hull():
    params = HarperParams(flux=RationalFlux(1, 2))
    energies, values = ids(params, kgrid=16, points=128)
    assert energies.size == 128
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) >= 0)


def test_ids_constant_across_gap():
    params = HarperParams(flux=RationalFlux(1, 3))
    # lowest gap of the flux-1/3 spectrum is (-2, 1 - sqrt(3))
    lo, hi = -2.0, 1.0 - math.sqrt(3.0)
    probes = np.array([lo + 0.05, 0.5 * (lo + hi), hi - 0.05])
    _, values = ids(params, egrid=probes, kgrid=32)
    assert values.tolist() == [1.0 / 3.0] * 3


# ---------------------------------------------------------------- independent oracles

def padded_grid(prm, points=257):
    e = np.sort(harper._edge_fibers(prm), axis=None)
    return np.linspace(e[0] - 0.1, e[-1] + 0.1, points)


def grid_count(prm, energies, n):
    """k-averaged eigenvalue count below each energy on an n x n grid, over q."""
    pooled = np.sort(eigenvalue_grid(prm, (n, n)), axis=None)
    return np.searchsorted(pooled, energies, side="right") / pooled.size


def test_ids_agrees_with_grid_counts_to_their_resolution():
    # the pooled n x n count is a staircase whose error shrinks about as 1/n
    fluxes = farey_fractions(12)
    exact = {f: ids(params(f.p, f.q), egrid=padded_grid(params(f.p, f.q)), kgrid=1024)
             for f in fluxes}
    errors = []
    for n in (16, 32, 64):
        errors.append(max(np.abs(grid_count(params(f.p, f.q), e, n) - v).max()
                          for f, (e, v) in exact.items()))
        assert errors[-1] <= 1.0 / n, (n, errors[-1])
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_ids_converges_in_the_quadrature_nodes(lam):
    # the arccos kinks limit the midpoint rule to about n^-1.5
    fluxes = [(0, 1), (1, 3), (2, 5), (3, 8), (5, 12)]
    for n in (16, 64, 256):
        worst = 0.0
        for p, q in fluxes:
            egrid = padded_grid(params(p, q, lam), 129)
            _, reference = ids(params(p, q, lam), egrid=egrid, kgrid=4096)
            _, values = ids(params(p, q, lam), egrid=egrid, kgrid=n)
            worst = max(worst, np.abs(values - reference).max())
        assert worst <= n ** -1.5, (n, worst)


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (3, 8), (8, 13)])
def test_aubry_duality_of_the_ids(p, q):
    # Aubry duality: lam * H(1/lam) has the k-averaged spectral distribution of
    # H(lam), so IDS_lam(E) = IDS_1/lam(E / lam)
    egrid = padded_grid(params(p, q, 2.0), 1025)
    _, strong = ids(params(p, q, 2.0), egrid=egrid)
    _, weak = ids(params(p, q, 0.5), egrid=egrid / 2.0)
    assert np.abs(strong - weak).max() <= 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_plateaus_are_exact_labels(lam):
    for flux in farey_fractions(12):
        q = flux.q
        bands = harper_spectrum(params(flux.p, q, lam))
        assert len(bands.intervals) == expected_bands(q)
        lo, hi = bands.intervals[0][0], bands.intervals[-1][1]
        windows = [(lo - 1.0, lo)] + interior_gaps(bands) + [(hi, hi + 1.0)]
        labels = [0] + [j for j in range(1, q) if 2 * j != q] + [q]
        for (a, b), j in zip(windows, labels):
            probes = a + (b - a) * np.array([0.25, 0.5, 0.75])
            _, values = ids(params(flux.p, q, lam), egrid=probes)
            assert np.all(values == j / q), (flux, lam, j, values)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_ids_rejects_nan_and_takes_infinities(lam):
    # the projection below -inf is empty and the one below +inf is the identity
    for flux in farey_fractions(8):
        prm = params(flux.p, flux.q, lam)
        assert ids(prm, egrid=[-np.inf, np.inf])[1].tolist() == [0.0, 1.0]
        for where in range(3):
            egrid = [-1.0, 0.0, 1.0]
            egrid[where] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                ids(prm, egrid=egrid)


@pytest.mark.parametrize("sizes", [{"kgrid": 2.5}, {"points": 2.5}], ids=["kgrid", "points"])
def test_ids_takes_only_integer_sizes(monkeypatch, sizes):
    # kgrid = 2.5 would sum 3 nodes and divide by 2.5
    def no_edges(_params):
        raise AssertionError("the edge fibers were solved before the sizes were checked")

    with monkeypatch.context() as patch:
        patch.setattr(harper, "_edge_fibers", no_edges)
        with pytest.raises(ValueError, match="integer"):
            ids(params(1, 3), **sizes)
    numpy_sizes = {name: np.int64(8) for name in ("kgrid", "points")}
    assert np.array_equal(ids(params(1, 3), **numpy_sizes), ids(params(1, 3), kgrid=8, points=8))


def test_ids_is_monotone_on_fine_grids():
    for q in range(1, 21):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            for lam in (0.5, 1.0, 2.0):
                _, v = ids(params(p, q, lam), points=4096)
                assert v[0] == 0.0 and v[-1] == 1.0
                assert np.all(np.diff(v) >= 0.0), (p, q, lam)


def band_interior(prm, t, min_width):
    """Energies at fractions ``t`` of every branch wider than ``min_width``,
    ascending, with each energy's branch index and branch width."""
    edges = np.sort(harper._edge_fibers(prm), axis=None)
    lo, width = edges[0::2], edges[1::2] - edges[0::2]
    j = np.flatnonzero(width > min_width)
    energies = (lo[j, None] + width[j, None] * np.asarray(t)).ravel()
    return energies, np.repeat(j, len(t)), np.repeat(width[j], len(t))


def test_ids_matches_a_high_precision_discriminant_inside_narrow_bands():
    # Delta from the edge-fiber eigenvalues is off by about eps * ||H|| / width
    # relative to its in-band range, so the bound grows as the band narrows;
    # the reference runs the transfer recurrence in decimal at 50 + q digits
    for p, q in [(2, 45), (3, 47), (1, 48), (46, 49), (13, 21), (34, 55)]:
        for lam in (0.5, 1.0, 2.0):
            prm = params(p, q, lam)
            energies, branch, width = band_interior(prm, [0.25, 0.5, 0.75], 1e-9)
            sign = np.where((q - 1 - branch) % 2, -1.0, 1.0)
            delta = decimal_discriminant(p, q, lam, energies)
            rho = min(lam ** q, lam ** -q)
            reference = (branch + _torus_fraction(sign * delta, rho, 64)) / q
            error = np.abs(ids(prm, egrid=energies)[1] - reference)
            bound = np.maximum(1e-12, 1e-14 * (4 + 4 * lam) / width)
            assert np.all(error <= bound), (p, q, lam, (error / bound).max())


def test_ids_is_monotone_inside_narrow_bands():
    # 32 interior energies of every band wider than 1e-12, one call per flux
    fluxes = [(p, q) for q in range(40, 51) for p in sorted({1, 2, q - 2, q - 1})
              if math.gcd(p, q) == 1]
    for p, q in fluxes:
        for lam in (0.5, 1.0, 2.0):
            prm = params(p, q, lam)
            energies, branch, _ = band_interior(prm, np.arange(1, 33) / 33, 1e-12)
            _, values = ids(prm, egrid=energies)
            assert np.all(values >= branch / q), (p, q, lam)
            assert np.all(values <= (branch + 1) / q), (p, q, lam)


RING_PHASES = (0.3, 2.1)
RING_CELLS = (3, 8)
RING_MARGIN = 1e-9


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_in_band_ids_matches_exact_ring_counts(monkeypatch, lam):
    # at finite volume the trace of a spectral projection is an eigenvalue
    # count: the ring of M cells at phase theta is the union of the fibers at
    # k1 = 2 pi l / M, k2 = theta, so E in band j has the j * M eigenvalues of
    # the bands below it, and by Chambers' relation it lies at or above the
    # branch-j eigenvalue at l exactly when s_j c~_l <= y, with c~_l =
    # (cos(2 pi l / M) + lam^q cos(q theta)) / max(1, lam^q).  y = s_j Delta(E)
    # / (2 max(1, lam^q)) is recorded where ``ids`` hands it to
    # ``_torus_fraction``, one energy per call, since on a longer grid a wrong
    # sign already breaks monotonicity.
    recorded = []
    torus_fraction = harper._torus_fraction

    def recording(y, rho, nodes):
        recorded.append(y)
        return torus_fraction(y, rho, nodes)

    monkeypatch.setattr(harper, "_torus_fraction", recording)
    compared, mismatches = 0, []
    for flux in farey_fractions(13):
        prm, q = params(flux.p, flux.q, lam), flux.q
        energies, branch, _ = band_interior(prm, [0.25, 0.5, 0.75], 1e-6)
        recorded.clear()
        for e in energies:
            ids(prm, egrid=[e])
        ys = np.concatenate(recorded)
        assert ys.size == energies.size, flux
        amplitude = max(1.0, lam ** q)
        for theta in RING_PHASES:
            for cells in RING_CELLS:
                ring = ring_eigenvalues(prm, cells, theta)
                ctilde = (np.cos(2 * np.pi * np.arange(cells) / cells)
                          + lam ** q * math.cos(q * theta)) / amplitude
                for e, j, y in zip(energies, branch, ys):
                    thresholds = (-1.0) ** (q - 1 - j) * ctilde
                    if (np.abs(thresholds - y).min() < RING_MARGIN
                            or np.abs(ring - e).min() < RING_MARGIN):
                        continue
                    compared += 1
                    predicted = j * cells + np.count_nonzero(thresholds <= y)
                    count = np.searchsorted(ring, e, side="right")
                    if count != predicted:
                        mismatches.append((flux, theta, cells, float(e), count, predicted))
    assert compared > 5000
    assert mismatches == [], (len(mismatches), mismatches[:5])


def test_ids_at_q_987_runs_in_under_two_seconds(tmp_path, capsys):
    out = tmp_path / "ids.json"
    start = time.perf_counter()
    assert main(["ids", "--flux", "610/987", "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().err == ""
    v = np.array(json.loads(out.read_text())["values"])
    assert v[0] == 0.0 and v[-1] == 1.0 and np.all(np.diff(v) >= 0.0)
    assert elapsed < 2.0


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
        assert len(bands.intervals) == expected_bands(q)
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
