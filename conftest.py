"""Test-session setup for the whole suite (tests/ and bench/): ``blochspec`` is imported
before numpy, so its one-BLAS-thread default holds here and in every child process."""

import blochspec  # noqa: F401  (before numpy: it sets the BLAS thread count)
import numpy as np
import pytest


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
