"""The repository's pytest settings report every failure of a run.

A failing hypothesis property must fail its test, print the falsifying example
and let the run go on; any other warning must still fail the test that trips it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_passing_test():
    pass


def test_a_stray_warning():
    warnings.warn("a stray warning", RuntimeWarning)
'''


def test_a_failing_property_is_reported_and_other_warnings_still_fail(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "2 failed, 1 passed" in out, out
