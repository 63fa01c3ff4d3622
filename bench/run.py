"""blochspec benchmark: CLI workloads end to end, and a traced per-layer split.

    python3 bench/run.py                                 # all four workloads
    python3 bench/run.py --workload ids --seed 3         # one workload
    python3 bench/run.py --workload continuum --trace 1  # per-layer metrics

With ``--trace 0`` every CLI call runs as its own process through
``launch.py``, one at a time, and passes repeat until ``--seconds`` have
elapsed (at least two, so every output is rerun once and compared byte for
byte).  With ``--trace 1`` the calls run in this process, each once untraced
and once under the span tracer of ``tracer.py``.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BLOCHSPEC_THREADS")

# name -> unit; the end-to-end metrics of BENCHMARK.json
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# percentile -> samples needed to have ten beyond it
PERCENTILES = {99.9: 10000, 99.0: 1000, 95.0: 200, 90.0: 100}


def reported_percentile(n: int) -> float:
    """Highest percentile with at least ten of n samples beyond it; the median
    when no higher one qualifies."""
    return max([50.0] + [p for p, needed in PERCENTILES.items() if n >= needed])


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# end-to-end run: one process per CLI call
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> dict:
    """Spawn one CLI call; wall time from spawn to exit, peak RSS from wait4."""
    report_r, report_w = os.pipe()
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(t0), str(report_w), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(report_w,))
    finally:
        os.close(report_w)
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = (time.monotonic_ns() - t0) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        with os.fdopen(report_r) as report:
            setup = report.read().strip()
    return {"code": proc.returncode, "out": out, "err": err[0] if err else b"",
            "wall_s": wall_s, "setup_s": int(setup) / 1e9 if setup else None,
            "rss_mb": usage.ru_maxrss / 1024.0}


def judge(calls: list, passes: list, reference=lambda i: i) -> tuple:
    """(attempted, failed, problems): call i fails on a non-zero exit, a failed
    output check, or output bytes that differ from call reference(i) of the
    first pass."""
    first = passes[0]
    checked = [check(first[i]["out"]) for i, (_, check) in enumerate(calls)]
    attempted = failed = 0
    problems = []
    for n, results in enumerate(passes):
        for i, r in enumerate(results):
            attempted += 1
            why = []
            if r["code"] != 0:
                why.append(f"exit {r['code']}: {r['err'].decode(errors='replace').strip()}")
            why += checked[i]
            if r["out"] != first[reference(i)]["out"]:
                why.append("output differs from the first run")
            if why:
                failed += 1
                problems.append(f"pass {n} {' '.join(calls[i][0])}: {'; '.join(why[:3])}")
    return attempted, failed, problems


def accuracy(name: str, outputs: list) -> dict:
    if name != "harper-bands":
        return {}
    try:
        return {"band_deficit": workloads.band_deficit(json.loads(outputs[0])),
                "qmeasure_err": workloads.qmeasure_err(json.loads(outputs[1]))}
    except (ValueError, KeyError, IndexError):
        return {}


def measure(name: str, seed: int, seconds: float) -> dict:
    calls = workloads.workload_calls(name, seed)
    passes = []
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start < seconds:
        passes.append([run_cli(argv) for argv, _ in calls])
    attempted, failed, problems = judge(calls, passes)
    samples = {
        "wall_s": [sum(r["wall_s"] for r in results) for results in passes],
        "setup_s": [r["setup_s"] for results in passes for r in results
                    if r["setup_s"] is not None],
        "peak_rss_mb": [r["rss_mb"] for results in passes for r in results],
    }
    values = {
        "wall_s": statistics.median(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]) if samples["setup_s"] else math.nan,
        "peak_rss_mb": max(samples["peak_rss_mb"]),
    }
    return {"workload": name, "attempted": attempted, "failed": failed, "problems": problems,
            "values": values, "samples": samples, "units": END_TO_END,
            "accuracy": accuracy(name, [r["out"] for r in passes[0]])}


# ---------------------------------------------------------------------------
# traced run: in-process, untraced and traced per call
# ---------------------------------------------------------------------------

def call_in_process(main, argv: list) -> tuple:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode(), time.perf_counter() - t0


def trace(name: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    from blochspec import cli

    calls = workloads.workload_calls(name, seed)
    passes, layer_passes, missing = [], [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        tr = tracer.Tracer()
        results, overhead, out_bytes, svg_written = [], 0.0, 0, 0
        for call_id, (argv, _) in enumerate(calls):
            code_u, out_u, wall_u = call_in_process(cli.main, argv)
            tr.call_id = call_id
            first_span = len(tr.spans)
            with tr:
                code_t, out_t, wall_t = call_in_process(cli.main, argv)
            missing = tr.missing
            overhead += wall_t - wall_u
            out_bytes += len(out_t)
            digest = hash(out_t.decode())
            svg_written += any(s.attrs.get("digest") == digest for s in tr.spans[first_span:])
            for code, out in ((code_u, out_u), (code_t, out_t)):
                results.append({"code": code, "out": out, "err": b""})
        passes.append(results)
        layer_passes.append(tracer.layer_metrics(tr.spans, out_bytes, svg_written, overhead))
    # the traced output of a call must equal its untraced output
    doubled = [c for c in calls for _ in (0, 1)]
    attempted, failed, problems = judge(doubled, passes, lambda i: i - i % 2)
    metrics = tracer.median_metrics(layer_passes)
    return {"workload": name, "attempted": attempted, "failed": failed, "problems": problems,
            "values": metrics, "samples": {"passes": len(passes)},
            "units": {k: u for k, (u, _) in tracer.PER_LAYER_METRICS.items()},
            "missing": missing,
            "accuracy": accuracy(name, [r["out"] for r in passes[0][::2]])}


# ---------------------------------------------------------------------------
# record and report
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_record(seed: int, results: list) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "samples": {r["workload"]: {k: (len(v) if isinstance(v, list) else v)
                                    for k, v in r["samples"].items()} for r in results},
        "missing_functions": sorted({m for r in results for m in r.get("missing", ())}),
    }


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")
    print(f"  {'fail_rate':28s} {result['failed'] / result['attempted']:14.6g} {'ratio':6s} "
          f"{result['failed']} of n={result['attempted']} calls")
    for name, value in result["values"].items():
        unit = result["units"][name]
        samples = result["samples"].get(name)
        if isinstance(samples, list):
            p = reported_percentile(len(samples))
            high = f"; p{p:g} {percentile(samples, p):.6g}" if p > 50 else ""
            print(f"  {name:28s} {value:14.6g} {unit:6s} median {statistics.median(samples):.6g}"
                  f"{high}; n={len(samples)}")
        else:
            print(f"  {name:28s} {value:14.6g} {unit:6s} n={result['samples']['passes']} passes")
    for name, value in result["accuracy"].items():
        unit = "count" if name == "band_deficit" else "1"
        print(f"  {name:28s} {value:14.6g} {unit:6s} deterministic; n=1")
    if result.get("missing"):
        print(f"  functions not found (recorded, not an error): {', '.join(result['missing'])}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["values"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blochspec" / "cli.py").is_file():
        print(f"blochspec sources not found under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    runner = trace if args.trace else measure
    results = []
    for name in names:
        results.append(runner(name, args.seed, args.seconds))
        print_table(results[-1])
    print("run_record " + json.dumps(run_record(args.seed, results)))
    if args.workload:
        print(contract_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(contract_line(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
