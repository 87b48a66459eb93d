"""The repository's pytest settings report a failing property test as a failure.

The warning filters in ``pyproject.toml`` turn DeprecationWarning into an
error.  When a Hypothesis test fails, the plugin imports libcst to report the
example, and libcst warns on import; unless that warning is exempt, pytest
stops with an internal error (exit 3) and never prints the example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_hypothesis_test_exits_1_with_its_example(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
