"""Span tracer that times blochspec's layers from outside the package.

The tracer replaces each listed public function with a timing wrapper on every
module attribute that callers look it up through (``harper.eigenvalue_grid``,
``fibering.eig_hermitian``, ``numpy.linalg.eigvalsh``, ...), and restores the
originals on exit.  No file under ``src/`` is edited.

A listed function that no longer exists is recorded in ``Tracer.missing``,
never treated as an error, so the per-layer metrics keep working after later
changes delete functions.  Layer times are sums of *self* times, so a wrapped
function that calls another wrapped function is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Span group -> functions, as "module:attribute[.attribute]".  Every function
# of a group is charged to that group's self time.
LAYER_FUNCTIONS = {
    "lapack": ("numpy.linalg:eigvalsh", "numpy.linalg:eigh"),
    "harper.sweep": ("blochspec.harper:eigenvalue_grid",),
    "harper.spectrum": (
        "blochspec.harper:butterfly",
        "blochspec.harper:harper_spectrum",
        "blochspec.harper:spectrum_from_eigenvalues",
    ),
    "harper.direct_space": (
        "blochspec.harper:direct_space_bulk",
        "blochspec.harper:direct_space_harper",
    ),
    "assembly.merge": (
        "blochspec.assembly:branch_ranges",
        "blochspec.assembly:sweep_merge_eps",
        "blochspec.assembly:coalesce_intervals",
        "blochspec.assembly:merge_intervals",
    ),
    "assembly.ids": ("blochspec.assembly:ids",),
    "fibering.sweep": (
        "blochspec.fibering:band_sweep",
        "blochspec.fibering:fiber_spectrum",
        "blochspec.fibering:build_fiber_matrix",
    ),
    "fibering.discrete": (
        "blochspec.fibering:discrete_bloch_transform",
        "blochspec.fibering:periodic_truncation_spectrum",
        "blochspec.fibering:fiber_union_spectrum",
        "blochspec.fibering:discrete_fiber_matrix",
    ),
    "model.validate": (
        "blochspec.model:HermitianMatrix.__post_init__",
        "blochspec.model:QuasiMomentum.__post_init__",
        "blochspec.model:SpectrumSample.__post_init__",
    ),
    "model.eig": ("blochspec.model:eig_hermitian",),
    "svgplot.render": (
        "blochspec.svgplot:render_bands_svg",
        "blochspec.svgplot:render_butterfly_svg",
    ),
    "cli.serialize": ("blochspec.cli:render_json", "blochspec.cli:render_csv"),
}

HARPER_SPECTRUM = "blochspec.harper:harper_spectrum"

# name -> (unit, better); the order is the report order
PER_LAYER_METRICS = {
    "lapack.s": ("s", "lower"),
    "lapack.calls": ("count", "lower"),
    "lapack.matrices": ("count", "lower"),
    "lapack.n3": ("count", "lower"),
    "lapack.bytes_in": ("B", "lower"),
    "harper.sweep_self_s": ("s", "lower"),
    "harper.spectrum_self_s": ("s", "lower"),
    "harper.spectra": ("count", "lower"),
    "harper.fibers_per_spectrum": ("count", "lower"),
    "harper.direct_space_s": ("s", "lower"),
    "assembly.merge_s": ("s", "lower"),
    "assembly.ids_self_s": ("s", "lower"),
    "fibering.sweep_self_s": ("s", "lower"),
    "fibering.fibers": ("count", "lower"),
    "fibering.discrete_s": ("s", "lower"),
    "model.validate_s": ("s", "lower"),
    "model.validations": ("count", "lower"),
    "model.eig_self_s": ("s", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "svgplot.used_ratio": ("ratio", "higher"),
    "cli.serialize_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    group: str
    call_id: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _lapack_attrs(args, kwargs, result) -> dict:
    """Computed work of one eigvalsh/eigh call: matrices, sum n^3, bytes in."""
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    matrices = math.prod(a.shape[:-2])
    return {"matrices": matrices, "n3": matrices * n**3,
            "bytes_in": matrices * a.dtype.itemsize * n * n}


def _render_attrs(args, kwargs, result) -> dict:
    return {"digest": hash(result)}


_ATTRS = {"lapack": _lapack_attrs, "svgplot.render": _render_attrs}


def _resolve(spec: str):
    """(owner, attribute name, function) for "module:a.b", or None if gone."""
    module_name, path = spec.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Context manager that records spans while the wrappers are installed.

    Spans stay in ``self.spans`` (in memory) until the caller reads them.
    ``call_id`` tags every span with the CLI call it belongs to.
    """

    def __init__(self, layers: dict = LAYER_FUNCTIONS):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.call_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, spec: str, group: str, fn):
        attrs = _ATTRS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(spec, group, self.call_id, stack[-1] if stack else None,
                        time.perf_counter())
            with self._lock:  # worker threads of a thread pool append too
                stack.append(len(self.spans))
                self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__traced__ = spec
        return wrapper

    def __enter__(self):
        self.missing = []
        for group, specs in self.layers.items():
            for spec in specs:
                found = _resolve(spec)
                if found is None:
                    self.missing.append(spec)
                    continue
                owner, name, fn = found
                if hasattr(fn, "__traced__"):  # an alias of a function wrapped already
                    continue
                wrapper = self._wrap(spec, group, fn)
                if isinstance(owner, type):
                    self._patch(owner, name, fn, wrapper)
                    continue
                # every name bound to fn: aliases, and "from x import f" elsewhere
                modules = [owner] + [m for n, m in list(sys.modules.items())
                                     if n.startswith("blochspec") and m is not owner]
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, fn, wrapper)
        return self

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        return False


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list, i: int, pred) -> bool:
    p = spans[i].parent
    while p is not None:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list, output_bytes: int, svg_written: int,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass (see PER_LAYER_METRICS)."""
    selfs = self_times(spans)
    by_group: dict = {}
    for s, t in zip(spans, selfs):
        acc = by_group.setdefault(s.group, [0.0, 0])
        acc[0] += t
        acc[1] += 1

    def secs(group):
        return by_group.get(group, (0.0, 0))[0]

    def count(group):
        return by_group.get(group, (0.0, 0))[1]

    lapack = [i for i, s in enumerate(spans) if s.group == "lapack"]

    def lapack_sum(key, idx=lapack):
        return sum(spans[i].attrs[key] for i in idx)

    def matrices_under(pred):
        return lapack_sum("matrices", [i for i in lapack if _has_ancestor(spans, i, pred)])

    spectra = sum(1 for s in spans if s.name == HARPER_SPECTRUM)
    renders = count("svgplot.render")
    return {
        "lapack.s": secs("lapack"),
        "lapack.calls": count("lapack"),
        "lapack.matrices": lapack_sum("matrices"),
        "lapack.n3": lapack_sum("n3"),
        "lapack.bytes_in": lapack_sum("bytes_in"),
        "harper.sweep_self_s": secs("harper.sweep"),
        "harper.spectrum_self_s": secs("harper.spectrum"),
        "harper.spectra": spectra,
        "harper.fibers_per_spectrum": (
            matrices_under(lambda s: s.name == HARPER_SPECTRUM) / spectra if spectra else 0.0
        ),
        "harper.direct_space_s": secs("harper.direct_space"),
        "assembly.merge_s": secs("assembly.merge"),
        "assembly.ids_self_s": secs("assembly.ids"),
        "fibering.sweep_self_s": secs("fibering.sweep"),
        "fibering.fibers": matrices_under(lambda s: s.group == "fibering.sweep"),
        "fibering.discrete_s": secs("fibering.discrete"),
        "model.validate_s": secs("model.validate"),
        "model.validations": count("model.validate"),
        "model.eig_self_s": secs("model.eig"),
        "svgplot.render_s": secs("svgplot.render"),
        "svgplot.used_ratio": svg_written / renders if renders else 0.0,
        "cli.serialize_s": secs("cli.serialize"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead_s,
    }


def median_metrics(passes: list) -> dict:
    """Per-metric median over the passes of a traced run."""
    return {name: statistics.median(p[name] for p in passes) for name in PER_LAYER_METRICS}
