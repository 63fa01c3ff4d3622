"""Independent oracles for the Chambers IDS: k-grid eigenvalue counts, convergence
in the quadrature, Aubry duality, exact gap labels, monotonicity, and large q."""

import json
import math
import time

import numpy as np
import pytest

from oracles import eigenvalue_grid

from blochspec.assembly import interior_gaps
from blochspec.cli import main
from blochspec.harper import (
    HarperParams,
    band_edges,
    farey_fractions,
    harper_spectrum,
    ids,
)
from blochspec.model import RationalFlux


def params(p, q, lam=1.0):
    return HarperParams(flux=RationalFlux(p, q), lam=lam)


def padded_grid(prm, points=257):
    e = band_edges(prm)
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
        errors.append(max(np.abs(grid_count(params(f.p, f.q), c.energies, n) - c.values).max()
                          for f, c in exact.items()))
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
            reference = ids(params(p, q, lam), egrid=egrid, kgrid=4096).values
            worst = max(worst, np.abs(ids(params(p, q, lam), egrid=egrid, kgrid=n).values
                                      - reference).max())
        assert worst <= n ** -1.5, (n, worst)


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (3, 8), (8, 13)])
def test_aubry_duality_of_the_ids(p, q):
    # Aubry duality: lam * H(1/lam) has the k-averaged spectral distribution of
    # H(lam), so IDS_lam(E) = IDS_1/lam(E / lam)
    egrid = padded_grid(params(p, q, 2.0), 1025)
    strong = ids(params(p, q, 2.0), egrid=egrid)
    weak = ids(params(p, q, 0.5), egrid=egrid / 2.0)
    assert np.abs(strong.values - weak.values).max() <= 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_plateaus_are_exact_labels(lam):
    for flux in farey_fractions(12):
        q = flux.q
        bands = harper_spectrum(params(flux.p, q, lam))
        assert len(bands) == (q if q % 2 else q - 1)
        lo, hi = bands.intervals[0][0], bands.intervals[-1][1]
        windows = [(lo - 1.0, lo)] + interior_gaps(bands) + [(hi, hi + 1.0)]
        labels = [0] + [j for j in range(1, q) if 2 * j != q] + [q]
        for (a, b), j in zip(windows, labels):
            probes = a + (b - a) * np.array([0.25, 0.5, 0.75])
            values = ids(params(flux.p, q, lam), egrid=probes).values
            assert np.all(values == j / q), (flux, lam, j, values)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_ids_rejects_nan_and_takes_infinities(lam):
    # the projection below -inf is empty and the one below +inf is the identity
    for flux in farey_fractions(8):
        prm = params(flux.p, flux.q, lam)
        assert ids(prm, egrid=[-np.inf, np.inf]).values.tolist() == [0.0, 1.0]
        for where in range(3):
            egrid = [-1.0, 0.0, 1.0]
            egrid[where] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                ids(prm, egrid=egrid)


def test_ids_is_monotone_on_fine_grids():
    for q in range(1, 21):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            for lam in (0.5, 1.0, 2.0):
                v = ids(params(p, q, lam), points=4096).values
                assert v[0] == 0.0 and v[-1] == 1.0
                assert np.all(np.diff(v) >= 0.0), (p, q, lam)


def test_ids_at_q_987_runs_in_under_two_seconds(tmp_path, capsys):
    out = tmp_path / "ids.json"
    start = time.perf_counter()
    assert main(["ids", "--flux", "610/987", "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().err == ""
    v = np.array(json.loads(out.read_text())["values"])
    assert v[0] == 0.0 and v[-1] == 1.0 and np.all(np.diff(v) >= 0.0)
    assert elapsed < 2.0
