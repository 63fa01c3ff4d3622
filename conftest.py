"""Test-session setup for the whole suite (tests/ and bench/).

The suite's wall-clock gates time the code, not BLAS thread scheduling.  A
threaded OpenBLAS product (complex q x q with q >= 41) can wait a ~16 ms
scheduler tick per call for a sleeping worker thread on a small VM, which
adds about a second to the q <= 64 cocycle sweep of the acceptance suite.
OpenBLAS reads this variable when numpy loads it, so it is set here, before
any test module imports numpy; an explicit setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
