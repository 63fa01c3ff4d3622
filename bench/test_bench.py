"""Tests of the benchmark's own logic (no CLI process is started)."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(start, end, parent=None, group="g", name="g:f"):
    return tracer.Span(name, group, 0, parent, start, end)


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0),
        _span(2.0, 4.0, parent=0),   # overlaps the previous child
        _span(5.0, 6.0, parent=0),
        _span(5.2, 5.7, parent=3),   # grandchild: charged to span 3 only
        _span(9.5, 11.0, parent=0),  # runs past the parent's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[1:5] == pytest.approx([2.0, 2.0, 0.5, 0.5])


def test_self_times_of_a_properly_nested_tree_add_up_to_the_root():
    spans = [_span(0.0, 8.0), _span(1.0, 5.0, parent=0), _span(2.0, 3.0, parent=1),
             _span(3.5, 4.0, parent=1), _span(6.0, 7.5, parent=0)]
    assert sum(tracer.self_times(spans)) == pytest.approx(8.0)


@pytest.mark.parametrize("n, p", [(1, 50.0), (19, 50.0), (99, 50.0), (100, 90.0),
                                  (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_reported_percentile_keeps_ten_samples_beyond_it(n, p):
    assert run.reported_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 90.0) == 90
    assert run.percentile(values, 50.0) == 50
    assert run.percentile([3.0], 99.0) == 3.0


@pytest.mark.parametrize("q, bands", [(1, 1), (2, 1), (3, 3), (4, 3), (19, 19), (20, 19)])
def test_expected_band_count(q, bands):
    assert workloads.expected_bands(q) == bands


def test_expected_bands_over_the_butterfly_rows():
    rows = workloads.farey(20)
    assert len(rows) == 128
    assert sum(workloads.expected_bands(q) for _, q in rows) == 1700


def test_qmeasure_err_on_a_hand_built_cantor_record():
    doc = {"rows": [{"p": 8, "q": 13, "measure": 0.9},
                    {"p": 13, "q": 21, "measure": 0.5}]}
    assert workloads.qmeasure_err(doc) == pytest.approx(abs(10.5 - 32 * 0.9159655941772190 / math.pi))
    assert workloads.QMEASURE_LIMIT == pytest.approx(9.32995, abs=1e-5)


def _butterfly(rows):
    return json.dumps({"config": {"max_q": 3}, "rows": [
        {"p": p, "q": q, "bands": bands} for (p, q), bands in zip(workloads.farey(3), rows)
    ]}).encode()


BUTTERFLY_Q3 = [
    [[-4.0, 4.0]],
    [[-2.75, -2.5], [-0.75, 0.75], [2.5, 2.75]],
    [[-2.828, 2.828]],
    [[-2.75, -2.5], [-0.75, 0.75], [2.5, 2.75]],
]


def test_butterfly_check_accepts_a_consistent_output():
    assert workloads.check_butterfly(_butterfly(BUTTERFLY_Q3)) == []


@pytest.mark.parametrize("row, bands", [
    (1, [[-2.75, -2.5], [-0.75, 0.8], [2.5, 2.75]]),    # not symmetric under E -> -E
    (3, [[-2.75, -2.4], [-0.75, 0.75], [2.4, 2.75]]),   # 2/3 differs from 1/3
    (2, [[-4.5, 4.5]]),                                  # outside [-4, 4]
    (0, [[-3.9, 3.9]]),                                  # 0/1 is not [-4, 4]
    (2, [[-3.0, -1.0], [-0.5, 0.5], [1.0, 3.0]]),        # 3 bands at q = 2
])
def test_butterfly_check_rejects_a_corrupted_output(row, bands):
    rows = [list(r) for r in BUTTERFLY_Q3]
    rows[row] = bands
    assert workloads.check_butterfly(_butterfly(rows))


def test_butterfly_check_rejects_missing_rows_and_excess_band_deficit(monkeypatch):
    doc = json.loads(_butterfly(BUTTERFLY_Q3))
    doc["rows"].pop(1)
    assert workloads.check_butterfly(json.dumps(doc).encode())
    merged = [list(r) for r in BUTTERFLY_Q3]
    merged[1] = merged[3] = [[-2.75, 2.75]]
    assert workloads.band_deficit(json.loads(_butterfly(merged))) == 4
    monkeypatch.setattr(workloads, "BAND_DEFICIT_CEILING", 3)
    assert workloads.check_butterfly(_butterfly(merged))


def _cantor(measures):
    return json.dumps({"config": {"approximants": "1/2,2/3"}, "rows": [
        {"p": 1, "q": 2, "measure": measures[0]}, {"p": 2, "q": 3, "measure": measures[1]}
    ]}).encode()


def test_cantor_check():
    assert workloads.check_cantor(_cantor([4.0, 3.1])) == []
    assert workloads.check_cantor(_cantor([4.0, 9.0]))    # measure above 8
    assert workloads.check_cantor(_cantor([0.0, 3.1]))    # measure 0
    assert workloads.check_cantor(_cantor([4.0, 2.0]))    # qmeasure_err 3.33 above ceiling


def _ids(energies, values):
    return json.dumps({"config": {"epoints": len(energies)},
                       "energies": energies, "values": values}).encode()


def test_ids_check():
    assert workloads.check_ids(_ids([-1.0, 0.0, 1.0], [0.0, 0.5, 1.0])) == []
    assert workloads.check_ids(_ids([-1.0, 1.0, 0.0], [0.0, 0.5, 1.0]))
    assert workloads.check_ids(_ids([-1.0, 0.0, 1.0], [0.0, 0.6, 0.5]))
    assert workloads.check_ids(_ids([-1.0, 0.0, 1.0], [0.1, 0.5, 1.0]))
    assert workloads.check_ids(_ids([-1.0, 0.0, 1.0], [0.0, 0.5, 0.9]))
    assert workloads.check_ids(b"not json")


BANDS_CSV = """# schema=1
kind,i,k,e0,e1,lo,hi
sample,0,0.0,0.5,{e1},,
sample,1,3.14,1.0,2.0,,
interval,0,,,,0.5,1.0
interval,1,,,,1.5,2.0
gap,0,,,,1.0,1.5
"""


def test_bands_check():
    assert workloads.check_bands(BANDS_CSV.format(e1=1.5).encode()) == []
    assert workloads.check_bands(BANDS_CSV.format(e1=1.2).encode())   # inside the gap
    assert workloads.check_bands(BANDS_CSV.format(e1=0.4).encode())   # not ascending


def test_oracle_check():
    assert workloads.check_oracle(b'{"pass": true}') == []
    assert workloads.check_oracle(b'{"pass": false}')


def test_judge_counts_exit_check_and_rerun_failures():
    calls = [(["a"], lambda out: [] if out == b"ok" else ["bad"]), (["b"], lambda out: [])]
    ok = {"code": 0, "out": b"ok", "err": b""}
    passes = [[ok, ok], [ok, {"code": 0, "out": b"other", "err": b""}],
              [ok, {"code": 3, "out": b"ok", "err": b"boom"}]]
    attempted, failed, problems = run.judge(calls, passes)
    assert (attempted, failed) == (6, 2)
    assert any("differs" in p for p in problems) and any("exit 3" in p for p in problems)


def test_continuum_inputs_follow_the_seed():
    assert workloads.workload_calls("continuum", 5) == workloads.workload_calls("continuum", 5)
    assert workloads.continuum_amplitudes(5) != workloads.continuum_amplitudes(6)
    assert "--seed" in workloads.workload_calls("oracles", 7)[1][0]


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module stand-in for the traced package: `core` defines the
    functions, `front` imports one of them by name."""
    core = types.ModuleType("blochspec_fake_core")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    front = types.ModuleType("blochspec_fake_front")
    front.inner = inner
    monkeypatch.setitem(sys.modules, core.__name__, core)
    monkeypatch.setitem(sys.modules, front.__name__, front)
    return core, front


def test_tracer_records_missing_functions_and_restores_originals(fake_package):
    core, front = fake_package
    originals = (core.inner, core.outer)
    layers = {"layer": ("blochspec_fake_core:outer", "blochspec_fake_core:inner",
                        "blochspec_fake_core:deleted", "blochspec_fake_gone:f")}
    with tracer.Tracer(layers) as tr:
        assert front.inner is core.inner is not originals[0]
        assert core.outer(1) == 4
        assert front.inner(1) == 2
    assert (core.inner, core.outer) == originals and front.inner is originals[0]
    assert tr.missing == ["blochspec_fake_core:deleted", "blochspec_fake_gone:f"]
    assert [s.name.split(":")[1] for s in tr.spans] == ["outer", "inner", "inner"]
    assert tr.spans[1].parent == 0 and tr.spans[2].parent is None


def test_nested_and_aliased_wrappers_are_not_double_counted(fake_package):
    core, _ = fake_package
    core.alias = core.inner
    layers = {"layer": ("blochspec_fake_core:outer", "blochspec_fake_core:inner",
                        "blochspec_fake_core:alias")}
    with tracer.Tracer(layers) as tr:
        core.outer(1)
        core.alias(1)
    # the alias is wrapped once, together with inner
    assert [s.name.split(":")[1] for s in tr.spans] == ["outer", "inner", "inner"]
    assert tr.missing == []
    total = sum(tracer.self_times(tr.spans[:2]))
    assert total == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_layer_metrics_count_lapack_work_under_each_layer():
    spans = [
        tracer.Span(tracer.HARPER_SPECTRUM, "harper.spectrum", 0, None, 0.0, 4.0),
        tracer.Span("blochspec.harper:eigenvalue_grid", "harper.sweep", 0, 0, 0.5, 3.5),
        tracer.Span("numpy.linalg:eigvalsh", "lapack", 0, 1, 1.0, 3.0,
                    {"matrices": 64, "n3": 64 * 27, "bytes_in": 64 * 16 * 9}),
        tracer.Span("blochspec.fibering:fiber_spectrum", "fibering.sweep", 1, None, 5.0, 6.0),
        tracer.Span("numpy.linalg:eigvalsh", "lapack", 1, 3, 5.1, 5.9,
                    {"matrices": 1, "n3": 8, "bytes_in": 64}),
    ]
    m = tracer.layer_metrics(spans, output_bytes=10, svg_written=0, overhead_s=0.1)
    assert set(m) == set(tracer.PER_LAYER_METRICS)
    assert m["lapack.s"] == pytest.approx(2.8)
    assert (m["lapack.calls"], m["lapack.matrices"], m["lapack.n3"]) == (2, 65, 64 * 27 + 8)
    assert m["harper.sweep_self_s"] == pytest.approx(1.0)
    assert m["harper.spectrum_self_s"] == pytest.approx(1.0)
    assert (m["harper.spectra"], m["harper.fibers_per_spectrum"]) == (1, 64.0)
    assert m["fibering.fibers"] == 1
    assert m["svgplot.used_ratio"] == 0.0
