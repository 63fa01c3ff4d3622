"""oracle-check's memory peak, record order and random stream.

The dense direct-space chain is the largest allocation of ``oracle-check``.
Its peak resident set should be that of the chain alone plus a little, not the
chain stacked on top of numpy.random and the random checks' arrays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blochspec.cli import main

SRC = Path(__file__).parent.parent / "src"
STATUS = Path("/proc/self/status")
HWM_SLACK_KB = 4 * 1024

# Each child prints its own VmHWM (kB) as the last stdout line.  ru_maxrss of a
# child is not used: a forked child inherits its parent's high-water mark, so
# under pytest it would read pytest's RSS.
_PRINT_HWM = """
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        print(line.split()[1])
"""
_FULL_CHECK = """
import os
from blochspec import cli
code = cli.main(["oracle-check", "--flux", "13/21", "--sites", "1200",
                 "--output", os.devnull])
assert code == 0, code
"""
_CHAIN_ONLY = """
from blochspec import harper
from blochspec.model import RationalFlux
harper.direct_space_bulk(harper.HarperParams(flux=RationalFlux(13, 21)), 1200)
"""


def _child_hwm_kb(code: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + _PRINT_HWM], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_oracle_check_peaks_near_the_direct_space_chain_alone():
    full = _child_hwm_kb(_FULL_CHECK)
    chain = _child_hwm_kb(_CHAIN_ONLY)
    assert full <= chain + HWM_SLACK_KB, (full, chain)


SMALL = ["oracle-check", "--vectors", "4", "--trials", "3", "--sites", "90", "--seed", "3"]


def test_records_keep_their_order(tmp_path):
    out = tmp_path / "o.json"
    assert main(SMALL + ["--output", str(out)]) == 0
    assert list(json.loads(out.read_text())["checks"]) == ["unitarity", "union", "direct_space"]
    out = tmp_path / "o.csv"
    assert main(SMALL + ["--format", "csv", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()[4:]
    names = list(dict.fromkeys(row.split(",")[0] for row in rows))
    assert names == ["unitarity", "union", "direct_space", "overall"]


def test_direct_space_check_leaves_the_random_stream_alone(tmp_path):
    alone, full = tmp_path / "alone.json", tmp_path / "full.json"
    assert main(SMALL + ["--which", "unitarity", "--output", str(alone)]) == 0
    assert main(SMALL + ["--output", str(full)]) == 0
    unitarity = json.loads(alone.read_text())["checks"]["unitarity"]
    assert json.loads(full.read_text())["checks"]["unitarity"] == unitarity


def test_direct_space_check_creates_no_random_generator(tmp_path, monkeypatch):
    full = tmp_path / "full.json"
    assert main(SMALL + ["--output", str(full)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random used by the direct-space check")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    alone = tmp_path / "alone.json"
    assert main(SMALL + ["--which", "direct-space", "--output", str(alone)]) == 0
    checks = json.loads(alone.read_text())["checks"]
    assert checks == {"direct_space": json.loads(full.read_text())["checks"]["direct_space"]}
