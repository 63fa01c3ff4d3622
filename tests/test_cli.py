"""CLI surface: formats, metadata headers, determinism, and error records."""

import io
import json
import math
import os
import random
import shlex
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from oracles import hill_edge_misses, plane_wave_residual_radii, run_python

from blochspec import cli, fibering, harper, model
from blochspec.cli import MAX_DIM, MAX_GRID, MAX_Q, build_parser, main, parse_potential
from blochspec.harper import LAM_MAX, HarperParams, ids
from blochspec.model import RationalFlux

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path=None, name="out"):
    if tmp_path is not None:
        path = tmp_path / name
        code = main(args + ["--output", str(path)])
        return code, path.read_text()
    return main(args), None


def error_record(capsys, argv, code, kind):
    """Run ``main(argv)``, check that it exits ``code`` with nothing on stdout
    and a last stderr line that is a JSON record of error ``kind``, and return
    that record."""
    assert main(argv) == code, argv
    out, err = capsys.readouterr()
    assert out == ""
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == kind
    return record


# ---------------------------------------------------------------- happy paths

def test_butterfly_json_closed_forms(tmp_path):
    code, text = run_cli(["butterfly", "--max-q", "2", "--lambda", "1"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == 2 and "version" in doc and doc["config"]["max_q"] == 2
    rows = doc["rows"]
    assert [(r["p"], r["q"]) for r in rows] == [(0, 1), (1, 2)]
    assert rows[0]["bands"] == [[-4.0, 4.0]]
    # flux 1/2: bands touch at 0, emitted as the single merged interval
    (lo, hi), = rows[1]["bands"]
    assert abs(lo + 2 * math.sqrt(2)) <= 1e-12 and abs(hi - 2 * math.sqrt(2)) <= 1e-12


def test_algebra_check_report(tmp_path):
    code, text = run_cli(["algebra-check", "--flux", "1/2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["cocycle_residual"] <= 1e-14
    assert doc["omega_re"] == pytest.approx(-1.0, abs=1e-15)
    assert doc["band_count_bound"] == 2


def test_bands_regression_pinned(tmp_path):
    code, text = run_cli(
        ["bands", "--potential", "1:1", "--cutoff", "32", "--kpoints", "101", "--bands", "4"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert len(doc["band_intervals"]) == 4
    assert len(doc["k"]) == 101 and len(doc["band_energies"]) == 4
    fixture = json.loads((DATA / "bands_cosine.json").read_text())
    got_iv = np.array(doc["band_intervals"])
    exp_iv = np.array(fixture["band_intervals"])
    assert np.abs(got_iv - exp_iv).max() <= 1e-9
    got_gaps = np.array(doc["gaps"])
    exp_gaps = np.array(fixture["gaps"])
    assert got_gaps.shape == exp_gaps.shape
    assert np.abs(got_gaps - exp_gaps).max() <= 1e-9


def test_pinned_bands_fixture_edges_are_zeros_of_hill_parity_functions():
    # the fixture was pinned from this program; its 8 edges are checked against
    # the ODE oracle, which uses no plane-wave basis.  In ascending (Hill) order
    # they come from the k = 0 and k = pi fibers as 0, pi, pi, 0, 0, pi, pi, 0.
    # Each edge's radius is its own padded residual (3.6e-12 to 2.4e-11), which
    # grows with the edge's error, so its width is bounded too
    potential = parse_potential("1:1")
    fixture = json.loads((DATA / "bands_cosine.json").read_text())
    e = np.ravel(fixture["band_intervals"])
    edges = np.array([e[[0, 3, 4, 7]], e[[1, 2, 5, 6]]])
    ks = (0.0, math.pi)
    radius, wide = plane_wave_residual_radii(potential, 32, ks, edges)
    missed, _ = hill_edge_misses(potential, edges, radius)
    assert not (missed | wide).any()
    # a move of the fixture's 1e-9 tolerance is seen at the true edges' radii,
    # and at radii recomputed at the moved edges
    moved = np.concatenate([edges - 1e-9, edges + 1e-9], axis=1)
    assert hill_edge_misses(potential, moved, np.tile(radius, 2))[0].all()
    for shift in (-1e-9, 1e-9):
        radius, wide = plane_wave_residual_radii(potential, 32, ks, edges + shift)
        assert (hill_edge_misses(potential, edges + shift, radius)[0] | wide).all()


def test_ids_output(tmp_path):
    code, text = run_cli(["ids", "--flux", "1/3", "--kgrid", "32", "--epoints", "64"],
                         tmp_path)
    assert code == 0
    doc = json.loads(text)
    values = doc["values"]
    assert values[0] == 0.0 and values[-1] == 1.0
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cantor_output(tmp_path):
    code, text = run_cli(
        ["cantor", "--approximants", "1/2,2/3", "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "# schema=2"
    assert lines[3] == "i,p,q,measure"
    assert len(lines) == 6


def test_oracle_check_all(tmp_path):
    code, text = run_cli(
        ["oracle-check", "--sites", "200", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    assert set(doc["checks"]) == {"unitarity", "union", "direct_space"}


SMALL = ["oracle-check", "--sites", "90", "--seed", "3"]


def test_records_keep_their_order(tmp_path):
    out = tmp_path / "o.json"
    assert main(SMALL + ["--output", str(out)]) == 0
    assert list(json.loads(out.read_text())["checks"]) == ["unitarity", "union", "direct_space"]
    out = tmp_path / "o.csv"
    assert main(SMALL + ["--format", "csv", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()[4:]
    names = list(dict.fromkeys(row.split(",")[0] for row in rows))
    assert names == ["unitarity", "union", "direct_space", "overall"]


# a relative error of 1e-13 in the transform and a shift of 1e-12 in the fiber
# spectra, planted in the function each randomized check calls: each is above
# the roundoff bound 8 n eps ||H|| of every random cell (n <= 64 sites for the
# transform, n <= 48 and ||H|| <= 4 for the spectra)
PLANTED_FAULTS = {
    "unitarity": ("discrete_bloch_transform", lambda blocks: blocks * (1 + 1e-13)),
    "union": ("fiber_union_spectrum", lambda spectrum: spectrum + 1e-12),
}


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("which", sorted(PLANTED_FAULTS))
def test_randomized_oracles_catch_a_planted_fault(tmp_path, capsys, monkeypatch, which, seed):
    name, fault = PLANTED_FAULTS[which]
    exact = getattr(fibering, name)
    monkeypatch.setattr(fibering, name, lambda *args: fault(exact(*args)))
    path = tmp_path / "out"
    error_record(capsys, ["oracle-check", "--seed", seed, "--output", str(path)], 1,
                 "verification")
    checks = json.loads(path.read_text())["checks"]
    assert [key for key, check in checks.items() if not check["pass"]] == [which]


@pytest.mark.parametrize("name", ["_oracle_unitarity", "_oracle_union"])
def test_randomized_oracles_stay_under_half_their_roundoff_bound(monkeypatch, name):
    # the bound is no tuned tolerance: true roundoff stays well below it (the
    # worst cell over seeds 0-2999 reaches 0.19 of it)
    monkeypatch.setattr(cli, "ORACLE_ROUNDOFF", cli.ORACLE_ROUNDOFF / 2)
    check = getattr(cli, name)
    for seed in range(100):
        assert check(random.Random(seed))["pass"], seed


def test_oracle_seed_is_read_and_fixes_the_output(tmp_path):
    def output(seed: str, name: str) -> bytes:
        path = tmp_path / name
        assert main(["oracle-check", "--sites", "90", "--seed", seed,
                     "--output", str(path)]) == 0
        return path.read_bytes()

    first, again, other = output("0", "a"), output("0", "b"), output("1", "c")
    assert first == again
    assert json.loads(first)["checks"]["unitarity"] != json.loads(other)["checks"]["unitarity"]


def test_main_writes_the_output_file_without_echoing_its_path(tmp_path, capsys):
    out = tmp_path / "direct.json"
    assert main(["algebra-check", "--flux", "1/3", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["q"] == 3
    assert "output" not in doc["config"]  # path excluded from the echo
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, where):
    # exit 1 means a failed check; a path that cannot be written is bad input
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    error_record(capsys, ["algebra-check", "--flux", "1/3", "--output", str(path)], 2, "usage")


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_stdout_that_cannot_take_the_report_is_usage_error(monkeypatch):
    # a stand-in, not capsys's stream: the failing stdout is closed
    stdout, stderr = _FullStream(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["algebra-check", "--flux", "1/3"]) == 2
    assert stdout.closed
    (line,) = stderr.getvalue().splitlines()
    record = json.loads(line)
    assert record["error"] == "usage"
    assert "cannot write the report" in record["message"]


# a report of about 300 B stays in a buffered stdout until interpreter exit; one of
# about 25 kB is written at once; --output fails on its own file.  An empty
# PYTHONUNBUFFERED counts as unset.
FULL_DISK = [
    (["algebra-check", "--flux", "1/2"], "1"),
    (["algebra-check", "--flux", "1/2"], ""),
    (["ids", "--flux", "1/3"], "1"),
    (["ids", "--flux", "1/3"], ""),
    (["ids", "--flux", "1/3", "--output", "/dev/full"], ""),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", FULL_DISK,
                         ids=["small-unbuffered", "small-buffered", "large-unbuffered",
                              "large-buffered", "output-file"])
def test_full_disk_ends_as_one_usage_record(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_python(["-m", "blochspec", *argv], env={"PYTHONUNBUFFERED": unbuffered},
                          stdout=full)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "usage"


# the config echo opens every output; its keys and their order are part of the bytes
ECHOES = [
    (["bands", "--potential", "1:1", "--cutoff", "4", "--kpoints", "3", "--bands", "2"],
     ["command", "potential", "cutoff", "kpoints", "bands", "fmt"]),
    (["butterfly", "--max-q", "2"], ["command", "max_q", "lam", "fmt"]),
    (["ids", "--flux", "1/3", "--epoints", "8"],
     ["command", "lam", "kgrid", "flux", "epoints", "fmt"]),
    (["algebra-check", "--flux", "1/2"], ["command", "flux", "fmt"]),
    (["oracle-check", "--sites", "30"], ["command", "lam", "flux", "sites", "fmt", "seed"]),
    (["cantor", "--approximants", "1/2"], ["command", "lam", "approximants", "fmt"]),
]


@pytest.mark.parametrize("argv, keys", ECHOES, ids=[argv[0] for argv, _ in ECHOES])
def test_config_echo_keeps_its_keys_in_order(tmp_path, argv, keys):
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    config = json.loads(text)["config"]
    assert list(config) == keys
    assert config["command"] == argv[0]


@pytest.mark.parametrize("argv", [argv for argv, _ in ECHOES], ids=[a[0] for a, _ in ECHOES])
def test_payloads_and_rows_hold_only_builtins(argv):
    # json.dumps and the CSV cells format builtins; a numpy scalar would print
    # differently (np.float64(...)), so the commands convert arrays once, and
    # no cell is None.  Tuples (the band pairs of a BandSet) encode as lists.
    def walk(value):
        assert type(value) in (dict, list, tuple, str, int, float, bool), type(value)
        if isinstance(value, (dict, list, tuple)):
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)

    ns = build_parser().parse_args(argv)
    command, table, _ = cli._COMMANDS[ns.command]
    payload = command(ns)
    _, rows = table(payload)
    walk(payload)
    walk([list(row) for row in rows])


@pytest.mark.parametrize("argv", [argv for argv, _ in ECHOES], ids=[a[0] for a, _ in ECHOES])
def test_csv_cells_hold_no_numpy_scalar_repr(capsys, argv):
    # repr of a numpy scalar, e.g. np.complex128(...).real, reads np.float64(...)
    assert main(argv + ["--format", "csv"]) == 0
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith("#"):
            assert not any(cell.startswith("np.") for cell in line.split(",")), line


# ---------------------------------------------------------------- formats

def test_csv_and_json_carry_identical_numbers(tmp_path):
    # the CSV table is built from the payload alone, so the JSON output parsed
    # back (floats print at full precision) must give the CSV output's exact bytes
    for argv, _ in ECHOES:
        _, json_text = run_cli(argv + ["--format", "json"], tmp_path, "out.json")
        _, csv_text = run_cli(argv + ["--format", "csv"], tmp_path, "out.csv")
        payload = json.loads(json_text)
        for key in ("schema", "version", "config"):
            del payload[key]
        ns = build_parser().parse_args(argv + ["--format", "csv"])
        table = cli._COMMANDS[argv[0]][1]
        assert cli.render_csv(ns, *table(payload)) == csv_text, argv[0]


def test_svg_outputs_are_well_formed(tmp_path):
    _, svg = run_cli(["butterfly", "--max-q", "3", "--format", "svg"],
                     tmp_path, "b.svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.startswith("<?xml")
    assert "schema=2" in svg
    _, svg2 = run_cli(["bands", "--potential", "1:1", "--bands", "3", "--kpoints", "31",
                       "--cutoff", "8", "--format", "svg"], tmp_path, "bands.svg")
    assert sum(1 for el in ET.fromstring(svg2).iter() if el.tag.endswith("polyline")) == 3


def test_svg_rejected_where_undefined(tmp_path, capsys):
    # --format svg is offered by exactly the subcommands whose registry entry
    # has a renderer, and is a usage error elsewhere
    assert sorted(argv[0] for argv, _ in ECHOES) == sorted(cli._COMMANDS)
    for argv, _ in ECHOES:
        svg = argv + ["--format", "svg", "--output", str(tmp_path / "out.svg")]
        if cli._COMMANDS[argv[0]][2] is None:
            assert "invalid choice: 'svg'" in error_record(capsys, svg, 2, "usage")["message"]
        else:
            assert main(svg) == 0, argv[0]


# ---------------------------------------------------------------- determinism

def test_reruns_are_byte_identical(tmp_path):
    for fmt in ("json", "csv"):
        args = ["butterfly", "--max-q", "3", "--format", fmt]
        _, first = run_cli(args, tmp_path, f"a.{fmt}")
        _, second = run_cli(args, tmp_path, f"b.{fmt}")
        assert first == second


def _stdout(argv, threads) -> bytes:
    """stdout of ``python -m blochspec *argv`` at OPENBLAS_NUM_THREADS=threads (None: unset)."""
    proc = run_python(["-m", "blochspec", *argv], text=False,
                      env={"OPENBLAS_NUM_THREADS": threads})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the benchmark calls with the largest dense matrices: 129-row plane-wave fibers,
# 55-row edge fibers and a 1200-site chain, all below the size (201-301 rows) where
# OpenBLAS threading starts to move the printed bytes
@pytest.mark.parametrize("argv", [
    ["bands", "--potential", "0:0.6888,1:1.258,2:0.9206", "--cutoff", "64", "--kpoints", "11",
     "--bands", "16", "--format", "csv"],
    ["ids", "--flux", "34/55"],
    ["oracle-check", "--flux", "13/21", "--sites", "1200"],
], ids=["bands-cutoff-64", "ids-34/55", "oracle-1200-sites"])
def test_bench_sized_outputs_do_not_depend_on_the_blas_thread_count(argv):
    assert _stdout(argv, "1") == _stdout(argv, "2")


# a 377-row edge fiber and 301-row plane-wave fibers move the bytes (ROADMAP defect I); unset,
# the package's own default must print the one-thread bytes whatever the core count
@pytest.mark.parametrize("argv", [
    ["ids", "--flux", "233/377"],
    ["bands", "--potential", "0:0.3,1:1,2:0.5", "--cutoff", "150", "--kpoints", "11",
     "--bands", "16"],
], ids=["ids-233/377", "bands-cutoff-150"])
def test_an_unset_thread_count_prints_the_one_thread_bytes(argv):
    assert _stdout(argv, None) == _stdout(argv, "1")


def test_svg_is_rendered_only_on_request(tmp_path, monkeypatch):
    def no_svg(*args, **kwargs):
        raise AssertionError("svg rendered for a non-svg format")

    for name, (command, table, _) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (command, table, no_svg))
    for argv, _ in ECHOES:
        for fmt in ("json", "csv"):
            assert run_cli(argv + ["--format", fmt], tmp_path)[0] == 0, (argv[0], fmt)
    # and the CSV table is built only for --format csv
    monkeypatch.undo()

    def no_table(payload):
        raise AssertionError("csv table built for a non-csv format")

    for name, (command, _, svg) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (command, no_table, svg))
    for argv, _ in ECHOES:
        assert run_cli(argv + ["--format", "json"], tmp_path)[0] == 0, argv[0]
        if cli._COMMANDS[argv[0]][2] is not None:
            assert run_cli(argv + ["--format", "svg"], tmp_path)[0] == 0, argv[0]


# ---------------------------------------------------------------- error records

ABOVE_LAM_MAX = repr(float(np.nextafter(LAM_MAX, np.inf)))

# argv that main rejects as a usage error, and a part of the record's message
USAGE_ERRORS = [
    # every oracle check runs at fixed sample sizes; nothing selects or resizes one
    (["oracle-check", "--which", "1"], ""),
    (["oracle-check", "--trials", "1"], ""),
    (["oracle-check", "--vectors", "1"], ""),
    # the chain's phases are fixed at 0 and pi/q, the two edge fibers
    (["oracle-check", "--theta", "0"], ""),
    # an empty path is a path that cannot be opened, not a request for stdout
    (["algebra-check", "--flux", "1/3", "--output", ""], ""),
    # an unreduced flux, an unknown flag or command, an unreadable potential
    (["ids", "--flux", "2/4"], "reduced"),
    (["butterfly", "--max-q", "2", "--frobnicate", "1"], ""),
    (["frobnicate"], ""),
    (["bands", "--potential", "nonsense"], ""),
    # butterfly takes no --kgrid, and a non-finite lambda nowhere
    (["butterfly", "--max-q", "3", "--lambda", "inf"], ""),
    (["butterfly", "--max-q", "3", "--kgrid", "inf"], ""),
    (["cantor", "--lambda", "nan"], ""),
    (["ids", "--flux", "1/3", "--lambda", "inf"], ""),
    (["oracle-check", "--lambda", "inf"], ""),
    # a lambda whose band hull overflows
    (["butterfly", "--max-q", "2", "--lambda", "1e308"], ""),
    (["ids", "--flux", "1/3", "--lambda", "1e308"], ""),
    (["butterfly", "--max-q", "2", "--lambda", ABOVE_LAM_MAX], ""),
    (["ids", "--flux", "1/3", "--lambda", ABOVE_LAM_MAX], ""),
    # sum |v(n)| past max float / 8 would overflow the top fiber eigenvalue and
    # print an infinite band edge
    (["bands", "--potential", "0:1e308,1:1e308", "--cutoff", "2", "--bands", "2",
      "--kpoints", "2"], ""),
    (["bands", "--potential", "1:1.7e308,1.7e308", "--cutoff", "2", "--bands", "2",
      "--kpoints", "2"], ""),
    # too few ids energies or quadrature nodes
    (["ids", "--flux", "1/3", "--epoints", "0"], ""),
    (["ids", "--flux", "1/3", "--epoints", "1"], ""),
    (["ids", "--flux", "1/3", "--kgrid", "0"], ""),
    (["ids", "--flux", "1/3", "--kgrid", "-3"], ""),
    # no command but oracle-check draws random numbers, so none other takes a seed
    *((argv + ["--seed", "0"], "") for argv, _ in ECHOES if argv[0] != "oracle-check"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[shlex.join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_2_with_one_record(capsys, argv, message):
    assert message in error_record(capsys, argv, 2, "usage")["message"]


def test_non_finite_potential_is_usage_error_with_a_clean_stderr():
    for spec in ("1:inf", "1:1,nan", "0:-inf"):
        proc = run_python(["-m", "blochspec", "bands", "--potential", spec])
        assert proc.returncode == 2 and proc.stdout == ""
        record, = (json.loads(line) for line in proc.stderr.splitlines())
        assert record["error"] == "usage"


def test_large_finite_potential_keeps_its_gap(tmp_path):
    code, text = run_cli(["bands", "--potential", "1:1e300", "--cutoff", "2", "--bands", "2",
                          "--kpoints", "2", "--format", "json"], tmp_path)
    assert code == 0 and "Infinity" not in text
    doc = json.loads(text)
    assert len(doc["band_intervals"]) == 2 and len(doc["gaps"]) == 1


def test_gap_whose_edges_are_one_double_prints_with_width_zero(tmp_path):
    # the open gap 14 of the continuum benchmark's first potential has its two
    # edges on the same double at cutoff 32: two touching bands, not one
    code, text = run_cli(["bands", "--potential=0:-0.1376,1:0.7946,2:1.0835", "--cutoff", "32",
                          "--bands", "16", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["band_intervals"]) == 16 and len(doc["gaps"]) == 15
    assert [b - a for a, b in doc["gaps"]].count(0.0) == 1


@pytest.mark.parametrize("cutoff", ["4", "5"])
def test_truncation_splits_of_closed_gaps_print_no_gap(tmp_path, cutoff):
    # V = 2 cos 4 pi x has period 1/2, so gaps 1 and 3 are closed, although the
    # truncated fibers split them by 2.26e-8 and 5.8e-9, far above roundoff
    code, text = run_cli(["bands", "--potential", "2:1", "--bands", "4", "--kpoints", "3",
                          "--cutoff", cutoff], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["band_intervals"]) == 2 and len(doc["gaps"]) == 1


def test_largest_accepted_lambda_gives_finite_edges(tmp_path):
    code, text = run_cli(["butterfly", "--max-q", "2", "--lambda", repr(LAM_MAX)], tmp_path)
    assert code == 0 and "NaN" not in text and "Infinity" not in text
    edges = [e for row in json.loads(text)["rows"] for band in row["bands"] for e in band]
    assert len(edges) == 4 and all(math.isfinite(e) for e in edges)
    code, text = run_cli(["ids", "--flux", "1/3", "--lambda", repr(LAM_MAX), "--epoints", "64"],
                         tmp_path)
    assert code == 0 and "NaN" not in text and "Infinity" not in text
    v = np.array(json.loads(text)["values"])
    assert v[0] == 0.0 and v[-1] == 1.0 and np.all(np.diff(v) >= 0)


# every command that reaches LAPACK, the largest matrix that still solves, and
# the failing matrices the exit-3 record names: their size, flux and k
LAPACK_EXITS = {
    "butterfly": (["butterfly", "--max-q", "3"], 0, "1x1", "0/1", None),
    # ids diagonalises only the two band-edge fibers
    "ids": (["ids", "--flux", "1/3"], 0, "3x3", "1/3", None),
    # the direct-space check solves only the q x q band-edge fibers; only stacks
    # larger than the union check's rings (at most 48 sites) fail, so the random
    # checks run through
    "oracle-check": (["oracle-check", "--flux", "2/49"], 48, "49x49", "2/49", None),
    # a 1d fiber (2 * 32 + 1 plane waves at the default cutoff) carries its k
    # and no flux
    "bands": (["bands", "--potential", "1:1"], 0, "65x65", None, 0.0),
    "cantor": (["cantor"], 0, "2x2", "1/2", None),
}


@pytest.mark.parametrize("argv, above, size, flux, k", LAPACK_EXITS.values(),
                         ids=LAPACK_EXITS.keys())
def test_eigensolver_failure_maps_to_exit_3(capsys, lapack_fails, argv, above, size, flux, k):
    lapack_fails(above)
    record = error_record(capsys, argv, 3, "numerical")
    assert size in record["message"]
    assert (record.get("flux"), record.get("k")) == (flux, k)


@pytest.fixture
def no_check_runs(monkeypatch):
    """Make each of the three oracle checks raise if it is reached."""
    def ran(*args):
        raise AssertionError("a check ran before the arguments were validated")

    for name in ("_oracle_unitarity", "_oracle_union", "_oracle_direct_space"):
        monkeypatch.setattr(cli, name, ran)


class Reached(Exception):
    """Raised by a patched builder: the call got past argument checking."""


@pytest.fixture
def no_builders(monkeypatch):
    """Every builder a capped argument sizes raises instead of allocating: the
    dense fibers and, for algebra-check, the clock's diagonal of length q."""
    def reached(*args, **kwargs):
        raise Reached

    for owner, name in ((fibering, "_fiber_eigenvalues"), (harper, "tridiagonal"),
                        (model, "clock_shift")):
        monkeypatch.setattr(owner, name, reached)


# the flux, lam, chain length and seed are echoed in every header, so each is validated
# before any check runs, the randomized ones that do not use it included, and the chain is built
@pytest.mark.parametrize("flags", [["--flux", "2/4"], ["--lambda", "-1"], ["--seed", "-1"],
                                   ["--sites", "2", "--flux", "1/3"],
                                   ["--sites", "20", "--flux", "13/21"]], ids=shlex.join)
def test_oracle_check_rejects_what_it_echoes_before_any_check(capsys, no_check_runs,
                                                              no_builders, flags):
    error_record(capsys, ["oracle-check"] + flags, 2, "usage")


@pytest.mark.parametrize("argv, largest, over", [
    (["bands", "--potential", "1:1", "--cutoff"], str((MAX_DIM - 1) // 2), str(MAX_DIM // 2)),
    (["butterfly", "--max-q"], str(MAX_Q), str(MAX_Q + 1)),
    (["oracle-check", "--sites"], str(MAX_DIM), str(MAX_DIM + 1)),
    (["ids", "--flux"], f"1/{MAX_DIM}", f"1/{MAX_DIM + 1}"),
    (["algebra-check", "--flux"], f"1/{MAX_DIM}", f"1/{MAX_DIM + 1}"),
    (["oracle-check", "--sites", str(MAX_DIM), "--flux"], f"1/{MAX_DIM}", f"1/{MAX_DIM + 1}"),
    (["cantor", "--approximants"], f"1/2,1/{MAX_DIM}", f"1/2,1/{MAX_DIM + 1}"),
], ids=["cutoff", "max-q", "sites", "ids-flux", "algebra-flux", "oracle-flux", "cantor-flux"])
def test_arguments_that_size_a_dense_matrix_are_capped(capsys, no_builders, argv, largest,
                                                       over):
    # the largest legal value reaches a builder; one more is a usage error
    with pytest.raises(Reached):
        main(argv + [largest])
    capsys.readouterr()
    error_record(capsys, argv + [over], 2, "usage")


@pytest.mark.parametrize("argv, lo, hi", [
    (["bands", "--potential", "1:1", "--kpoints"], 1, MAX_GRID),
    (["bands", "--potential", "1:1", "--bands"], 1, MAX_DIM),
    (["ids", "--flux", "1/3", "--epoints"], 2, MAX_GRID),
    (["ids", "--flux", "1/3", "--kgrid"], 1, MAX_GRID),
], ids=["kpoints", "bands", "epoints", "kgrid"])
def test_grid_sizes_are_bounded_while_parsing(capsys, argv, lo, hi):
    # only parsing runs: the bounds hold before any array or loop is sized
    parser = build_parser()
    dest = argv[-1].lstrip("-")
    for value in (lo, hi):
        assert getattr(parser.parse_args(argv + [str(value)]), dest) == value
    for value in (lo - 1, hi + 1, -1):
        record = error_record(capsys, argv + [str(value)], 2, "usage")
        assert f"between {lo} and {hi}" in record["message"]


def test_potential_within_the_symmetry_tolerance_is_stored_real(tmp_path):
    # an imaginary v(0) of 1e-15 passes the 1e-14 check and is dropped, so
    # 0:0,1e-15 is the zero potential and 0:1,1e-15 the constant 1
    for spec, want in (("0:0,1e-15", 0.0), ("0:1,1e-15", 1.0)):
        code, text = run_cli(["bands", "--potential", spec, "--cutoff", "0", "--bands", "1",
                              "--kpoints", "1"], tmp_path)
        assert code == 0
        assert json.loads(text)["band_energies"] == [[want]]


def test_ids_where_lambda_to_the_q_overflows(tmp_path):
    # 4^610 overflows float64; the curve must still be finite and, by Aubry
    # duality, equal the lam = 1/4 curve at E/4
    code, text = run_cli(["ids", "--flux", "377/610", "--lambda", "4", "--epoints", "256"],
                         tmp_path)
    assert code == 0
    assert "NaN" not in text and "Infinity" not in text
    doc = json.loads(text)
    e, v = np.array(doc["energies"]), np.array(doc["values"])
    assert v[0] == 0.0 and v[-1] == 1.0 and np.all(np.diff(v) >= 0)
    _, dual = ids(HarperParams(flux=RationalFlux(377, 610), lam=0.25), egrid=e / 4.0)
    assert np.abs(dual - v).max() <= 1e-6


def test_python_m_cli_leaves_stderr_empty():
    proc = run_python(["-m", "blochspec.cli", "algebra-check", "--flux", "1/2"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["q"] == 2


# ---------------------------------------------------------------- potential parser

def test_parse_potential_forms():
    v = parse_potential("1:1")
    assert v.coefficients == {1: 1.0, -1: 1.0}
    v = parse_potential("0:0.5,1:1,-0.25")
    assert v.coefficients == {0: 0.5, 1: 1.0 - 0.25j, -1: 1.0 + 0.25j}
    for bad in ("", "1:", "x:1", "0.5", "1:1,1:2"):
        with pytest.raises(ValueError):
            parse_potential(bad)
