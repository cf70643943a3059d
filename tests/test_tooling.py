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


def _tracing():
    # perfbench is a directory of scripts, not a package: load by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_span_tracer_wraps_resolves_in_the_package():
    # a renamed or deleted traced function fails here, not only in a
    # traced benchmark run
    tracing = _tracing()
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


def test_the_span_tracer_counts_every_structure_nonzero_of_an_element_product(monkeypatch):
    # the benchmark's algebra.mul.us_per_nnz divides by this count, whatever
    # share of the structure entries the product kernel visits
    import weilcalc as wc
    from weilcalc.algebra import AlgebraElement
    from weilcalc.exprs import Var, prim

    tracing = _tracing()
    element_products = []
    plain_mul = AlgebraElement.__mul__

    def counted(self, other):
        if isinstance(other, AlgebraElement):
            element_products.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    monkeypatch.setattr(AlgebraElement, "__rmul__", counted)
    a = wc.algebra.make_basic("truncated", 1, 3)
    f = wc.programs.Program(2, [prim("sin", Var(0)) * Var(1) + Var(0) ** 3, prim("exp", Var(0) * Var(1))])
    coords = [AlgebraElement(a, [0.3, 1.0, 0.0, 0.0]), AlgebraElement(a, [0.5, 0.2, 1.0, 0.0])]
    point = wc.functor.WeilPoint(a, coords)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    patches.install(tracer, wc)
    try:
        wc.functor.lift(a, f)(point)
    finally:
        patches.restore()
    _, counts = tracer.take()
    assert counts["algebra.mul.nnz"] > 0
    assert counts["algebra.mul.nnz"] == len(element_products) * len(a.nonzeros())
    assert tracing.Patches.leftovers() == []


def test_the_span_tracer_counts_one_node_per_raw_constructor_call():
    # the render workload's exprs.nodes_built per pass counts the calls of
    # each node class's __init__, four of which are one shared method
    import weilcalc as wc
    from weilcalc.exprs import Add, Const, Div, IntPow, Mul, Neg, Prim, Sub, Var, format_expr

    tracing = _tracing()
    assert tracing.EXPR_NODES == ("Var", "Const", "Neg", "Add", "Sub", "Mul", "Div", "IntPow", "Prim")

    def build():
        x, c = Var(0), Const(2.0)
        return [x, c, Neg(x), Add(x, c), Sub(x, c), Mul(x, c), Div(x, c), IntPow(x, 3), Prim("sin", x)]

    tracer, patches = tracing.Tracer(), tracing.Patches()
    patches.install(tracer, wc)
    try:
        built = build()
    finally:
        patches.restore()
    _, counts = tracer.take()
    assert counts["exprs.nodes_built"] == 9
    assert tracing.Patches.leftovers() == []
    after = build()
    assert [type(n).__name__ for n in after] == list(tracing.EXPR_NODES)
    assert [format_expr(n) for n in after] == [format_expr(n) for n in built] == [
        "x0", "2", "-x0", "x0 + 2", "x0 - 2", "x0*2", "x0/2", "x0^3", "sin(x0)",
    ]
