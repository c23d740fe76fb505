"""The suite's own configuration: a failing check must never hide the others."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x > 0


def test_passing():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    """One failing `@given` test and one passing test, run under pyproject's
    warning filters and tests/conftest.py, report both results. With libcst
    installed, hypothesis' patch writer used to raise a DeprecationWarning as
    an error here and end the session with INTERNALERROR."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "-p", "tests.conftest", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in proc.stdout, output
