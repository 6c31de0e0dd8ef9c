"""The test suite's own settings keep a failing property test readable."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    """Under the suite's filterwarnings, a failing @given test is reported
    with its falsifying example, not as a plugin INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                           str(tmp_path / "test_property.py")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
