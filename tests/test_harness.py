"""The test session itself: every failure is reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_FAILURES = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # on a failing @given test hypothesis imports a module that warns, and
    # the "error" filter must not turn that warning into an INTERNALERROR
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_two.py").write_text(TWO_FAILURES)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout, run.stdout
