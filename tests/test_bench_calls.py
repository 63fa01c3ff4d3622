"""Every CLI call of the benchmark's workloads at seeds 0 and 1, run in process:
it exits 0, passes the benchmark's own output check and reruns to the same
bytes, so an output the benchmark would count as incorrect fails here first.
The band edges and five interior samples of each ``bands`` call are also
checked against Hill's ODE."""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

from oracles import hill_edge_misses, hill_sample_misses, plane_wave_residual_radii

from blochspec.cli import build_parser, main, parse_potential
from blochspec.fibering import _fiber_eigenvalues
from blochspec.model import uniform_k_grid

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
    # the edges the call prints, checked against the ODE oracle (real
    # coefficients) at each edge's own residual radius, whose width is bounded;
    # every edge moved up by 1e-9, its radius recomputed there, fails
    ns = build_parser().parse_args(argv)
    potential = parse_potential(ns.potential)
    ks = (0.0, math.pi)
    edges = _fiber_eigenvalues(potential, ns.cutoff, ks, ns.bands)
    radius, wide = plane_wave_residual_radii(potential, ns.cutoff, ks, edges)
    missed, _ = hill_edge_misses(potential, edges, radius)
    assert not (missed | wide).any()
    radius, wide = plane_wave_residual_radii(potential, ns.cutoff, ks, edges + 1e-9)
    assert (hill_edge_misses(potential, edges + 1e-9, radius)[0] | wide).all()


@pytest.mark.parametrize("argv", list(BANDS_CALLS.values()), ids=list(BANDS_CALLS))
def test_benchmark_interior_band_samples_are_roots_of_the_discriminant(argv):
    # the samples the call prints at five k strictly inside (0, pi) are roots of
    # Delta(E) - 2 cos k within their own residual radius, whose width is
    # bounded; every one moved up by 10 r at that radius is flagged, and every
    # one moved up by 1e-9, its radius recomputed there, fails
    ns = build_parser().parse_args(argv)
    potential = parse_potential(ns.potential)
    ks = uniform_k_grid(ns.kpoints)[[80, 170, 250, 330, 420]]
    samples = _fiber_eigenvalues(potential, ns.cutoff, ks, ns.bands)
    radius, wide = plane_wave_residual_radii(potential, ns.cutoff, ks, samples)
    missed, r = hill_sample_misses(potential, ks, samples, radius)
    assert not (missed | wide).any()
    assert hill_sample_misses(potential, ks, samples + 10 * r, radius)[0].all()
    radius, wide = plane_wave_residual_radii(potential, ns.cutoff, ks, samples + 1e-9)
    assert (hill_sample_misses(potential, ks, samples + 1e-9, radius)[0] | wide).all()
