"""The test configuration itself: a failing test must not end the session;
every package module imports on its own, without an import cycle; and
every name the benchmark's span tracer wraps still exists."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "weilcalc"

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


# registers the package without running its __init__, so the named module
# is the first one imported and its own imports decide the order
FIRST_IMPORT = """
import importlib, sys, types
pkg = types.ModuleType("weilcalc")
pkg.__path__ = [sys.argv[1]]
sys.modules["weilcalc"] = pkg
importlib.import_module("weilcalc." + sys.argv[2])
"""


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    run = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, str(PACKAGE), module],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_every_name_the_span_tracer_wraps_resolves_in_the_package():
    # loaded by path: a renamed or deleted traced function fails here, not
    # only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module("weilcalc." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (mod_name, path))
    exprs = importlib.import_module("weilcalc.exprs")
    missing += [name for name in tracing.EXPR_NODES if not isinstance(getattr(exprs, name, None), type)]
    assert missing == []
