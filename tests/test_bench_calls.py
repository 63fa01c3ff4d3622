"""Every CLI call of the benchmark's workloads at seeds 0 and 1, run in process:
it exits 0, passes the benchmark's own output check and reruns to the same
bytes, so an output the benchmark would count as incorrect fails here first.
The band edges of each ``bands`` call are also checked against Hill's ODE."""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

from oracles import hill_edge_misses, plane_wave_radius

from blochspec.cli import build_parser, main, parse_potential
from blochspec.fibering import _fiber_eigenvalues

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# keyed by argv, so a call that does not depend on the seed runs once, not once per seed
CALLS = {" ".join(argv): (argv, check) for name in workloads.WORKLOADS for seed in (0, 1)
         for argv, check in workloads.workload_calls(name, seed)}


def _stdout(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("argv, check", list(CALLS.values()), ids=list(CALLS))
def test_benchmark_call_passes_its_check_and_reruns_identically(argv, check):
    code, out = _stdout(argv)
    assert code == 0
    assert check(out) == []
    assert _stdout(argv) == (0, out)


BANDS_CALLS = {key: argv for key, (argv, _) in CALLS.items() if argv[0] == "bands"}


@pytest.mark.parametrize("argv", list(BANDS_CALLS.values()), ids=list(BANDS_CALLS))
def test_benchmark_band_edges_are_zeros_of_hill_parity_functions(argv):
    # the edges the call prints, checked against the ODE oracle (real coefficients)
    ns = build_parser().parse_args(argv)
    potential = parse_potential(ns.potential)
    edges = _fiber_eigenvalues(potential, ns.cutoff, (0.0, math.pi), ns.bands)
    missed, _ = hill_edge_misses(potential, edges, plane_wave_radius(potential, ns.cutoff))
    assert not missed.any()
