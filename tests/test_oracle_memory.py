"""The memory peaks of oracle-check and algebra-check.

The direct-space check counts eigenvalues by inertia and builds no matrix, so
it should peak near the imported CLI alone and near counting its chain alone,
and the full check near its largest random check, ``union``, alone.  The
children that run one check alone call it directly, and each child runs once
per session, so the tests that share a child share its peak.  The
randomized checks draw from Python's ``random.Random``, so the full check never
loads ``numpy.random`` (about 5.6 MB resident) and peaks near the import alone
as well.  algebra-check holds the clock as its diagonal and the shift as a
cyclic roll, so at the largest flux it too peaks near the import alone.
"""

import functools
from pathlib import Path

import pytest

from oracles import run_python

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
import sys
from blochspec import cli
code = cli.main(["oracle-check", "--flux", "13/21", "--sites", "1200",
                 "--output", os.devnull])
assert code == 0, code
assert "numpy.random" not in sys.modules, "oracle-check loaded numpy.random"
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
_CHAIN_ONLY = """
import numpy as np
from blochspec import harper
from blochspec.model import RationalFlux
harper.direct_space_count(harper.HarperParams(flux=RationalFlux(13, 21)), 1200,
                          np.linspace(-4.0, 4.0, 44))
"""


@functools.cache
def _child_hwm_kb(code: str) -> int:
    """The VmHWM of one child running ``code``, measured once per session."""
    proc = run_python(["-c", code + _PRINT_HWM])
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


# each child's peak against the peak of the child it should stay near, named
# after the claim
PEAKS = {
    "direct_space_check_peaks_near_the_import_alone": (_DIRECT_ONLY, _IMPORT_ONLY),
    # the band edges, gap probes and second phase of the direct-space check
    # add nothing resident to counting its 1200-site chain
    "oracle_check_peaks_near_the_direct_space_chain_alone": (_DIRECT_ONLY, _CHAIN_ONLY),
    "oracle_check_loads_no_numpy_random_and_peaks_near_the_import_alone":
        (_FULL_CHECK, _IMPORT_ONLY),
    "oracle_check_peaks_near_the_union_check_alone": (_FULL_CHECK, _UNION_ONLY),
    "algebra_check_at_the_largest_flux_peaks_near_the_import_alone":
        (_ALGEBRA_CHECK, _IMPORT_ONLY),
}


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("code, near", PEAKS.values(), ids=PEAKS.keys())
def test_peak_stays_near_its_reference(code, near):
    peak, reference = _child_hwm_kb(code), _child_hwm_kb(near)
    assert peak <= reference + HWM_SLACK_KB, (peak, reference)
