"""Test-session setup for the whole suite (tests/ and bench/).

OpenBLAS runs at one thread here, as in CI and the benchmark runs.  Output
bytes depend on the BLAS thread count once a dense matrix has about 300 rows
(ROADMAP defect I), and the tests compare report bytes between runs, also in
child processes, which inherit the setting.  OpenBLAS reads this variable
when numpy loads it, so it is set here, before any test module imports numpy;
an explicit setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
