"""Workload inputs and method-independent output checks.

Each workload is a fixed list of CLI calls.  A check takes the raw stdout of
one call and returns a list of problems; an empty list means the output is
correct.  The checks hold for the k-grid methods of the seed and for exact
band-edge or IDS methods alike: they test symmetries, bounds and shapes, never
the values of one method.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

# Thouless' bandwidth limit q*|sigma| -> 32 G / pi along Fibonacci fractions
# (PRB 28, 4272 (1983)); G is Catalan's constant.
CATALAN = 0.915965594177219015054603514932384110774
QMEASURE_LIMIT = 32.0 * CATALAN / math.pi

# Accuracy ceilings: the values the seed code reaches, known defects A and B
# of ROADMAP.md.  A change that coarsens a grid and loses accuracy exceeds
# them and fails its output check; a change that fixes the defects passes.
BAND_DEFICIT_CEILING = 680
QMEASURE_ERR_CEILING = 1.763

SYMMETRY_TOL = 1e-9
HARPER_BOUND = 4.0  # |E| <= 2 + 2*lam at lam = 1

WORKLOADS = {
    "harper-bands": "the 2d magnetic-zone sweep plus LAPACK: butterfly to q = 20 and "
                    "the Fibonacci band measures; carries the accuracy checks",
    "ids": "the same Harper eigenvalue grid used for the whole eigenvalue "
           "distribution, not only its extremes",
    "continuum": "per-k plane-wave fibers built, validated and diagonalised one by one, "
                 "plus an unused SVG and a large CSV; never calls harper",
    "oracles": "discrete Bloch transform, periodic truncation and the dense "
               "direct-space chain of up to 1200 sites",
}


def continuum_amplitudes(seed: int) -> tuple:
    """Amplitudes a0, a1, a2 of the seeded continuum potential."""
    rng = random.Random(seed)
    return (round(rng.uniform(-1.0, 1.0), 4), round(rng.uniform(0.5, 1.5), 4),
            round(rng.uniform(0.5, 1.5), 4))


def workload_calls(name: str, seed: int) -> list:
    """The (argv, check) pairs of one workload pass."""
    if name == "harper-bands":
        return [(["butterfly", "--max-q", "20"], check_butterfly),
                (["cantor"], check_cantor)]
    if name == "ids":
        return [(["ids", "--flux", "13/21", "--kgrid", "128", "--epoints", "4096"], check_ids),
                (["ids", "--flux", "34/55"], check_ids)]
    if name == "continuum":
        a0, a1, a2 = continuum_amplitudes(seed)
        return [(["bands", "--potential", "1:1", "--kpoints", "1001", "--format", "csv"],
                 check_bands),
                (["bands", "--potential", f"0:{a0},1:{a1},2:{a2}", "--cutoff", "64",
                  "--kpoints", "1001", "--bands", "16", "--format", "csv"], check_bands)]
    if name == "oracles":
        return [(["oracle-check", "--seed", str(seed)], check_oracle),
                (["oracle-check", "--flux", "13/21", "--sites", "1200", "--seed", str(seed)],
                 check_oracle)]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# accuracy metrics
# ---------------------------------------------------------------------------

def expected_bands(q: int) -> int:
    """Exact Harper band count at flux p/q, lam = 1: q for odd q, q - 1 for even q
    (van Mouche, CMP 1989; Choi-Elliott-Yui, Invent. Math. 1990)."""
    return q if q % 2 else q - 1


def band_deficit(doc: dict) -> int:
    """Sum over butterfly rows of |expected band count - bands found|."""
    return sum(abs(expected_bands(r["q"]) - len(r["bands"])) for r in doc["rows"])


def qmeasure_err(doc: dict) -> float:
    """|q*|sigma| - 32G/pi| at the last (largest-q) cantor approximant."""
    last = doc["rows"][-1]
    return abs(last["q"] * last["measure"] - QMEASURE_LIMIT)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _json(out: bytes):
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def farey(max_q: int) -> list:
    """Reduced (p, q) with 0 <= p/q < 1 and q <= max_q, by increasing flux."""
    fracs = {Fraction(p, q) for q in range(1, max_q + 1) for p in range(q)}
    return [(f.numerator, f.denominator) for f in sorted(fracs)]


def _close(a, b) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= SYMMETRY_TOL for u, v in zip(a, b) for x, y in zip(u, v))


def check_butterfly(out: bytes) -> list:
    doc, problems = _json(out)
    if doc is None:
        return problems
    rows = doc["rows"]
    got = [(r["p"], r["q"]) for r in rows]
    if got != farey(doc["config"]["max_q"]):
        return [f"rows {got[:4]}... are not the reduced fluxes in flux order"]
    by_flux = {(r["p"], r["q"]): r["bands"] for r in rows}
    for r in rows:
        p, q, bands = r["p"], r["q"], r["bands"]
        tag = f"row {p}/{q}"
        if not 1 <= len(bands) <= q:
            problems.append(f"{tag}: {len(bands)} bands, expected 1..{q}")
        if any(not -HARPER_BOUND - SYMMETRY_TOL <= e <= HARPER_BOUND + SYMMETRY_TOL
               for iv in bands for e in iv):
            problems.append(f"{tag}: band outside [-4, 4]")
        if not _close(bands, [[-b, -a] for a, b in reversed(bands)]):
            problems.append(f"{tag}: not symmetric under E -> -E")
        if not _close(bands, by_flux[((q - p) % q, q)]):
            problems.append(f"{tag}: differs from flux {(q - p) % q}/{q}")
    if rows and not _close(rows[0]["bands"], [[-HARPER_BOUND, HARPER_BOUND]]):
        problems.append("row 0/1 is not [-4, 4]")
    if not problems and band_deficit(doc) > BAND_DEFICIT_CEILING:
        problems.append(f"band_deficit {band_deficit(doc)} above {BAND_DEFICIT_CEILING}")
    return problems


def check_cantor(out: bytes) -> list:
    doc, problems = _json(out)
    if doc is None:
        return problems
    rows = doc["rows"]
    n = len(doc["config"]["approximants"].split(","))
    if len(rows) != n:
        return [f"{len(rows)} rows, expected {n}"]
    for r in rows:
        if not 0.0 < r["measure"] <= 2 * HARPER_BOUND:
            problems.append(f"row {r['p']}/{r['q']}: measure {r['measure']} outside (0, 8]")
    if not problems and qmeasure_err(doc) > QMEASURE_ERR_CEILING:
        problems.append(f"qmeasure_err {qmeasure_err(doc)} above {QMEASURE_ERR_CEILING}")
    return problems


def check_ids(out: bytes) -> list:
    doc, problems = _json(out)
    if doc is None:
        return problems
    e, v = doc["energies"], doc["values"]
    if len(e) != doc["config"]["epoints"] or len(v) != len(e):
        return [f"{len(e)} energies and {len(v)} values, expected {doc['config']['epoints']}"]
    if any(b <= a for a, b in zip(e, e[1:])):
        problems.append("energies not ascending")
    if any(b < a for a, b in zip(v, v[1:])):
        problems.append("IDS values decrease")
    if v[0] != 0.0 or v[-1] != 1.0:
        problems.append(f"IDS runs from {v[0]} to {v[-1]}, expected 0 to 1")
    return problems


def check_bands(out: bytes) -> list:
    try:
        lines = [ln for ln in out.decode().splitlines() if not ln.startswith("#")]
    except UnicodeDecodeError:
        return ["output is not text"]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows or rows[0][:3] != ["kind", "i", "k"]:
        return ["missing CSV header"]
    nbands = len(rows[0]) - 5
    samples = [[float(x) for x in r[3:3 + nbands]] for r in rows[1:] if r[0] == "sample"]
    intervals = [(float(r[-2]), float(r[-1])) for r in rows[1:] if r[0] == "interval"]
    if not samples or not intervals:
        return ["no samples or no band intervals"]
    problems = []
    for i, energies in enumerate(samples):
        if any(b < a for a, b in zip(energies, energies[1:])):
            problems.append(f"sample {i}: energies not ascending")
        for e in energies:
            tol = SYMMETRY_TOL * max(1.0, abs(e))
            if not any(a - tol <= e <= b + tol for a, b in intervals):
                problems.append(f"sample {i}: energy {e} outside every band interval")
    return problems


def check_oracle(out: bytes) -> list:
    doc, problems = _json(out)
    if doc is None:
        return problems
    return [] if doc.get("pass") is True else ["oracle-check reports pass != true"]
