"""The memory peaks of oracle-check and algebra-check, and oracle-check's record order.

The direct-space check counts eigenvalues by inertia and builds no matrix, so
it should peak near the imported CLI alone and near counting its chain alone,
and the full check near its largest random check, ``union``, alone.  The
children that run one check alone call it directly.  The
randomized checks draw from Python's ``random.Random``, so the full check never
loads ``numpy.random`` (about 5.6 MB resident) and peaks near the import alone
as well.  algebra-check holds the clock as its diagonal and the shift as a
cyclic roll, so at the largest flux it too peaks near the import alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
_DIRECT_ONLY = """
from blochspec import cli, harper
from blochspec.model import RationalFlux
check = cli._oracle_direct_space(harper.HarperParams(flux=RationalFlux(13, 21)), 1200)
assert check["pass"], check
"""
_UNION_ONLY = """
import random
from blochspec import cli
check = cli._oracle_union(random.Random(0))
assert check["pass"], check
"""
_ALGEBRA_CHECK = """
import os
from blochspec import cli
code = cli.main(["algebra-check", "--flux", "1/2047", "--output", os.devnull])
assert code == 0, code
"""
_IMPORT_ONLY = """
from blochspec import cli
"""
_NO_NUMPY_RANDOM = """
import sys
assert "numpy.random" not in sys.modules, "oracle-check loaded numpy.random"
"""
_CHAIN_ONLY = """
import numpy as np
from blochspec import harper
from blochspec.model import RationalFlux
harper.direct_space_count(harper.HarperParams(flux=RationalFlux(13, 21)), 1200,
                          np.linspace(-4.0, 4.0, 44))
"""


def _child_hwm_kb(code: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + _PRINT_HWM], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_direct_space_check_peaks_near_the_import_alone():
    direct = _child_hwm_kb(_DIRECT_ONLY)
    imported = _child_hwm_kb(_IMPORT_ONLY)
    assert direct <= imported + HWM_SLACK_KB, (direct, imported)


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_oracle_check_peaks_near_the_direct_space_chain_alone():
    # the band edges, gap probes and second phase of the direct-space check
    # add nothing resident to counting its 1200-site chain
    direct = _child_hwm_kb(_DIRECT_ONLY)
    chain = _child_hwm_kb(_CHAIN_ONLY)
    assert direct <= chain + HWM_SLACK_KB, (direct, chain)


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_oracle_check_loads_no_numpy_random_and_peaks_near_the_import_alone():
    full = _child_hwm_kb(_FULL_CHECK + _NO_NUMPY_RANDOM)
    imported = _child_hwm_kb(_IMPORT_ONLY)
    assert full <= imported + HWM_SLACK_KB, (full, imported)


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_oracle_check_peaks_near_the_union_check_alone():
    full = _child_hwm_kb(_FULL_CHECK)
    union = _child_hwm_kb(_UNION_ONLY)
    assert full <= union + HWM_SLACK_KB, (full, union)


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_algebra_check_at_the_largest_flux_peaks_near_the_import_alone():
    algebra = _child_hwm_kb(_ALGEBRA_CHECK)
    imported = _child_hwm_kb(_IMPORT_ONLY)
    assert algebra <= imported + HWM_SLACK_KB, (algebra, imported)


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

