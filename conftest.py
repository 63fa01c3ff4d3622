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

import numpy as np  # noqa: E402  (after the thread setting, which numpy reads on import)
import pytest  # noqa: E402


@pytest.fixture
def lapack_fails(monkeypatch):
    """A call ``lapack_fails(above=0)`` makes ``np.linalg.eigvalsh`` raise
    ``LinAlgError`` on every matrix with more than ``above`` rows, for the rest
    of the test; smaller ones are still solved."""
    exact = np.linalg.eigvalsh

    def fail(above=0):
        def eigvalsh(a):
            if a.shape[-1] <= above:
                return exact(a)
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    return fail
