"""The suite's pytest settings must let a failing property test report.

``pyproject.toml`` turns every warning into an error. Hypothesis's failure
report imports ``libcst``, which imports the deprecated
``mypy_extensions.TypedDict``; unless that one warning is let through, the
error surfaces inside a pytest hook and stops the whole run with an
INTERNALERROR, hiding the falsifying example and every later test.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_reports_and_the_run_goes_on(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_two.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert "Falsifying example: test_fails(" in output
