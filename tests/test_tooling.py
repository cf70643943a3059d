"""The test configuration itself: a failing test must not end the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a Hypothesis test that fails, then tests that must still run and report
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after_one():
    pass


def test_after_two():
    pass


def test_after_three():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Hypothesis's failure report imports a module that warns on import;
    # the warning filters must not turn that into an internal error
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,  # Hypothesis keeps its example database in .hypothesis/ here
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 3 passed" in out, out
    assert run.returncode == 1
