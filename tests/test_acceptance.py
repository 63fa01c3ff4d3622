"""Acceptance suite: each numbered criterion runs at its stated tolerance and
runtime budget and prints one verdict line (run with pytest -s to see them)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import dense_clock_shift_residuals, distance_to_bands, eigenvalue_grid

import blochspec as bs
from blochspec.cli import DEFAULT_APPROXIMANTS, main

DATA = Path(__file__).parent / "data"
SQRT2 = math.sqrt(2.0)


def report(num, name, elapsed, limit, detail=""):
    print(f"PASS criterion {num} ({name}): {elapsed:.2f}s < {limit:.0f}s {detail}".rstrip())


def test_criterion_01_finite_bloch_unitarity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 17))
        cell = bs.DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2, q)))
        f = rng.normal(size=cell.sites) + 1j * rng.normal(size=cell.sites)
        blocks = bs.discrete_bloch_transform(f, cell)
        norm_in = np.vdot(f, f).real
        worst = max(worst, abs(np.vdot(blocks, blocks).real - norm_in) / norm_in)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "finite Bloch unitarity", elapsed, 1.0, f"max defect {worst:.2e}")


def test_criterion_02_union_of_fibers_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 13))
        cell = bs.DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2, q)))
        direct = bs.periodic_truncation_spectrum(cell)
        union = bs.fiber_union_spectrum(cell)
        worst = max(worst, float(np.abs(direct - union).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(2, "union-of-fibers identity", elapsed, 5.0, f"max deviation {worst:.2e}")


def test_criterion_03_free_continuum_case():
    start = time.perf_counter()
    free = bs.FourierPotential({})
    worst = 0.0
    ks, energies = bs.band_sweep(free, 16, bands=33, kpoints=17)
    for kval, w in zip(ks, energies):
        # the 33 lowest free energies over all integers m; at k > pi the window
        # -16..16 would not hold them (m = -17 lies below m = 16)
        expected = np.sort((2 * np.pi * np.arange(-17, 18) + kval) ** 2)[:33]
        worst = max(worst, float(np.abs(w - expected).max() / np.abs(expected).max()))
        assert np.allclose(w, expected, rtol=1e-10, atol=1e-12)
    bands = bs.band_structure(free, 16, bands=8)
    elapsed = time.perf_counter() - start
    assert bs.interior_gaps(bands) == []
    assert len(bands.intervals) == 1  # touching free bands merge; a spurious gap would split them
    assert bands.intervals[0][0] == 0.0 and bands.intervals[0][1] > 40.0
    assert elapsed < 1.0
    report(3, "free continuum case", elapsed, 1.0,
           f"max rel error {worst:.2e}, no gaps in [0, 40]")


def test_criterion_04_harper_closed_forms():
    start = time.perf_counter()
    zero = bs.harper_spectrum(bs.HarperParams(flux=bs.RationalFlux(0, 1)))
    assert len(zero.intervals) == 1
    assert abs(zero.intervals[0][0] + 4.0) <= 1e-8
    assert abs(zero.intervals[0][1] - 4.0) <= 1e-8
    half_params = bs.HarperParams(flux=bs.RationalFlux(1, 2))
    half = bs.harper_spectrum(half_params)
    assert abs(half.intervals[0][0] + 2 * SQRT2) <= 1e-12
    assert abs(half.intervals[-1][1] - 2 * SQRT2) <= 1e-12
    # the two branches really touch at 0 and the sampled eigenvalues match
    # the symbolic 2x2 formula +-sqrt(4 cos^2 k2 + 2 + 2 cos k1)
    evals = eigenvalue_grid(half_params)
    assert abs(evals[:, :, 0].max()) <= 1e-6 and abs(evals[:, :, 1].min()) <= 1e-6
    assert distance_to_bands(half, [0.0])[0] == 0.0
    k1s = bs.uniform_k_grid(64)[:, None]
    k2s = bs.uniform_k_grid(64)[None, :]
    closed = np.sqrt(4 * np.cos(k2s) ** 2 + 2 + 2 * np.cos(k1s))
    worst = max(
        float(np.abs(evals[:, :, 1] - closed).max()),
        float(np.abs(evals[:, :, 0] + closed).max()),
    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 2.0
    report(4, "Harper closed forms", elapsed, 2.0, f"max dev vs formula {worst:.2e}")


def test_criterion_05_kadison_quantization():
    # in a gap every fiber has the same eigenvalue count, so the IDS (the
    # canonical trace of the spectral projection) and an 8 x 8 k-grid count
    # must agree exactly, on a multiple of 1/q
    start = time.perf_counter()
    checked = 0
    for flux in bs.farey_fractions(8):
        params = bs.HarperParams(flux=flux)
        bands = bs.harper_spectrum(params)
        assert len(bands.intervals) == (flux.q if flux.q % 2 else flux.q - 1)
        mids = np.array([0.5 * (lo + hi) for lo, hi in bs.interior_gaps(bands)])
        if not mids.size:
            continue
        _, values = bs.ids(params, egrid=mids)
        assert np.array_equal(values, np.round(values * flux.q) / flux.q)
        pooled = np.sort(eigenvalue_grid(params, (8, 8)), axis=None)
        assert np.array_equal(values, np.searchsorted(pooled, mids, side="right") / pooled.size)
        checked += mids.size
    elapsed = time.perf_counter() - start
    assert checked == 92
    assert elapsed < 60.0
    report(5, "Kadison quantization", elapsed, 60.0,
           f"all {checked} gaps over q <= 8 quantized in 1/q")


def test_criterion_06_cocycle_relations():
    start = time.perf_counter()
    residuals = {}
    for q in range(1, 65):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            flux = bs.RationalFlux(p, q)
            residuals[flux] = bs.commutation_residual(*bs.clock_shift(flux))
    elapsed = time.perf_counter() - start
    worst, pairs = max(residuals.values()), len(residuals)
    assert worst <= 1e-12
    assert elapsed < 1.0
    # each O(q) residual is the dense q x q Frobenius norm up to roundoff
    for flux, residual in residuals.items():
        assert abs(residual - dense_clock_shift_residuals(flux)[2]) <= 1e-15, flux
    report(6, "cocycle relations", elapsed, 1.0, f"{pairs} pairs, max residual {worst:.2e}")


def test_criterion_07_direct_space_oracle(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "direct.json"
    argv = ["oracle-check", "--flux", "1/3", "--sites", "600"]
    assert main(argv + ["--output", str(out)]) == 0
    check = json.loads(out.read_text())["checks"]["direct_space"]
    elapsed = time.perf_counter() - start
    assert check["pass"] is True and check["max_count_excess"] == 0
    assert elapsed < 10.0
    report(7, "direct-space oracle", elapsed, 10.0,
           f"inertia counts at {check['probes']} gap-edge probes within the gap-label bound")


def test_criterion_08_cantor_proxy():
    start = time.perf_counter()
    fluxes = [bs.RationalFlux.parse(t) for t in DEFAULT_APPROXIMANTS.split(",")]
    rows = bs.cantor_proxy(fluxes, lam=1.0)
    elapsed = time.perf_counter() - start
    fixture = json.loads((DATA / "cantor_measures.json").read_text())
    for (flux, measure), (p, q, frozen) in zip(rows, fixture["rows"]):
        assert (flux.p, flux.q) == (p, q)
        assert abs(measure - frozen) <= 1e-8
    measures = {(f.p, f.q): m for f, m in rows}
    margin = measures[(1, 2)] - measures[(13, 21)]
    assert margin >= 0.5
    assert elapsed < 10.0
    report(8, "Cantor proxy", elapsed, 10.0,
           f"measure 1/2 = {measures[(1, 2)]:.3f}, 13/21 = {measures[(13, 21)]:.3f}, "
           f"margin {margin:.3f} >= 0.5")


def test_criterion_09_butterfly_throughput_and_symmetries(tmp_path):
    out = tmp_path / "butterfly.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "blochspec", "butterfly", "--max-q", "20",
         "--output", str(out)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(Path(bs.__file__).parents[1])),  # this package
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert elapsed < 10.0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == len(bs.farey_fractions(20))
    by_flux = {(r["p"], r["q"]): [tuple(iv) for iv in r["bands"]] for r in rows}
    tol = 1e-9
    for (p, q), bands in by_flux.items():
        assert len(bands) == (q if q % 2 else q - 1)
        flipped = sorted((-b, -a) for a, b in bands)
        for (a, b), (fa, fb) in zip(bands, flipped):
            assert abs(a - fa) <= tol and abs(b - fb) <= tol
        partner = by_flux[((q - p) % q, q)]
        assert len(partner) == len(bands)
        for (a, b), (pa, pb) in zip(bands, partner):
            assert abs(a - pa) <= tol and abs(b - pb) <= tol
    report(9, "butterfly throughput and symmetries", elapsed, 10.0,
           f"{len(rows)} rows, exact band counts")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    runs = [
        ["butterfly", "--max-q", "3"],
        ["bands", "--potential", "1:1", "--cutoff", "8", "--kpoints", "21", "--bands", "3"],
        ["ids", "--flux", "1/2", "--kgrid", "16", "--epoints", "32"],
    ]
    for fmt in ("json", "csv"):
        for args in runs:
            a, b = tmp_path / "a", tmp_path / "b"
            assert main(args + ["--format", fmt, "--output", str(a)]) == 0
            assert main(args + ["--format", fmt, "--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    report(10, "determinism", elapsed, 60.0, "byte-identical CSV/JSON re-runs")
