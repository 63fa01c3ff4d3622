"""The repo's pytest settings: every warning is an error, yet a failing
Hypothesis test still fails as one test instead of aborting the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0
"""


def test_failing_given_test_exits_1_without_internal_error(tmp_path):
    # Hypothesis's failure report touches mypy_extensions.TypedDict, whose
    # DeprecationWarning would otherwise end pytest with INTERNALERROR (exit 3)
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
