"""The repository's pytest configuration, run on a pair of probe tests."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_passing_test():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Reporting a failing example may import modules that warn as they load;
    # under filterwarnings = error such a warning was an INTERNALERROR, and
    # the passing test after it never ran.
    (tmp_path / "test_pair.py").write_text(PAIR)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
