"""Reach audit: every function of weilcalc runs under some command, or
ALLOWED names it with the reason it stays.

The commands of `_commands` run in this process under `sys.setprofile`,
after the package's memoized constructors are cleared, so that every
algebra is built again whatever ran before.  A function is identified by
its module and `co_qualname`, never by line number; comprehensions count
as part of the function that holds them.  The set of functions that no
command calls must equal ALLOWED, so a newly dead function and a newly
reached one both fail.
"""

import importlib
import inspect
import json
import os
import sys
import types
from pathlib import Path

import pytest

import weilcalc
from weilcalc import cli
from weilcalc.exprs import Const, Var, intpow, prim
from weilcalc.functional import FunctionalVectorField, functional_field_to_json
from weilcalc.programs import Program, VectorField, field_to_json

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")

PACKAGE = Path(weilcalc.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
INLINE = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

REPR = "repr for interactive use; no command prints the object"
ERROR = "error path: runs only when a command fails, and every audited command passes"
WRITER = "writer of a user file format; the render workload and the tests write field files with it"
ORACLE = "test oracle: tests compare results with it, and no command needs it"
ITEM_6 = "ROADMAP item 6 gives the base projection a verify row"
ITEM_7 = "ROADMAP item 7's naturality check composes with the inverse diffeomorphism through it"
MEMO_KEY = ("key equality of the memoized constructors; runs when an equal but distinct algebra "
            "meets a cached key, which no audited command repeats")
# the only reasons an entry may give: ROADMAP item 10 allows reprs, error
# paths, user-format writers and test oracles, plus what an open item needs
REASONS = {REPR, ERROR, WRITER, ORACLE, ITEM_6, ITEM_7, MEMO_KEY}

ALLOWED = {
    "algebra.AlgebraElement.__repr__": REPR,
    "algebra.AlgebraHom.__repr__": REPR,
    "algebra.WeilAlgebra.__eq__": MEMO_KEY,
    "algebra.WeilAlgebra.__repr__": REPR,
    "cli.CliError.__init__": ERROR,
    "cli._failure_text": ERROR,
    "errors.InvariantViolation.__init__": ERROR,
    "errors.NotMultiplicative.__init__": ERROR,
    "exprs.Const.__repr__": REPR,
    "exprs.Var.__repr__": REPR,
    "exprs.node_to_json": WRITER,
    "functional.FunctionalVectorField.__repr__": REPR,
    "functional.functional_field_to_json": WRITER,
    "functor.WeilPoint.__repr__": REPR,
    "jets.FunctorTriple.__repr__": REPR,
    "jets.JetGroupElement.__eq__": ORACLE,  # exact jet equality over Q
    "jets.JetGroupElement.__hash__": ORACLE,  # kept consistent with __eq__
    "jets.JetGroupElement.__repr__": REPR,
    "jets.frame_evaluate": ORACLE,
    "programs.Program.__repr__": REPR,
    "programs.VectorField.__repr__": REPR,
    "programs.compose": ITEM_7,
    "programs.field_to_json": WRITER,
    "programs.program_dumps": ORACLE,  # canonical program text
    "programs.program_to_json": WRITER,
    "prolong.ProlongedField.__repr__": REPR,
    "prolong.ProlongedField.base_values": ITEM_6,
    "prolong.check_base_projection": ITEM_6,
    "prolong.check_base_projection.<locals>.gaps": ITEM_6,
    "reports.documents_equal": ORACLE,  # report equality apart from generated_at
    "strongdiff.SecondTangent.__repr__": REPR,
}


def _is_function(code) -> bool:
    """A def or lambda: not a module or class body, not a comprehension."""
    return bool(code.co_flags & inspect.CO_OPTIMIZED) and code.co_name not in INLINE


def package_functions() -> set:
    """Every def and lambda in the package's sources, as "module.qualname"."""
    found = set()
    for stem in MODULES:
        path = PACKAGE / (stem + ".py")
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if _is_function(code):
                found.add("%s.%s" % (stem, code.co_qualname))
    return found


def clear_memoized():
    """Empty every lru_cache defined in the package."""
    for stem in MODULES:
        module = importlib.import_module("weilcalc" if stem == "__init__" else "weilcalc." + stem)
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def reached(commands) -> tuple:
    """Exit codes of `cli.main` on each argv, and the package functions
    called while they ran."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    clear_memoized()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        exits = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    names = set()
    for code in codes:
        path = Path(os.path.realpath(code.co_filename))
        if path.parent == PACKAGE and _is_function(code):
            names.add("%s.%s" % (path.stem, code.co_qualname))
    return exits, names


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _commands(tmp: Path) -> list:
    """The audited commands.  The manifold pair uses `/`, a negative
    integer power and all five primitives; the functional pair has orders
    0 and 1."""
    x0, x1 = Var(0), Var(1)
    mx = VectorField(2, Program(2, [
        prim("sin", x0) / (2 + intpow(x1, 2)),
        prim("log", 2 + intpow(x0, 2)) * intpow(1 + intpow(x1, 2), -2),
    ]))
    my = VectorField(2, Program(2, [
        prim("exp", x1) * prim("cos", x0),
        3 / prim("sqrt", 1 + intpow(x0, 2)) - x1,
    ]))
    zero = Program(1, [Const(0.0)])
    f1 = FunctionalVectorField(1, 1, 1, 0, zero, Program(3, [Var(1) * Var(2)]))
    f2 = FunctionalVectorField(1, 1, 1, 1, zero, Program(4, [Var(3)]))
    m_pair = ["--field", _write(tmp / "mx.json", field_to_json(mx)),
              "--field", _write(tmp / "my.json", field_to_json(my))]
    f_pair = ["--field", _write(tmp / "f1.json", functional_field_to_json(f1)),
              "--field", _write(tmp / "f2.json", functional_field_to_json(f2))]
    algebra = str(tmp / "dt.json")
    few = ["--seed", "7", "--samples", "1"]
    return [
        ["verify", "--suite", "all", *few, "--report", str(tmp / "report.json")],
        ["verify", "--suite", "bracket", *few, *m_pair],
        ["verify", "--suite", "prolong-functional,prolong-functional-jet", *few, *f_pair],
        ["bracket", *m_pair, "--at", "0.3,-0.4"],
        ["bracket", *f_pair],
        ["algebra", "show", "truncated(1,2)"],
        ["algebra", "build", "S()", "--show"],
        ["algebra", "build", "tensor(dual,truncated(1,2))", "--report", algebra],
        ["algebra", "check", algebra],
        ["verify", "--suite", "prolong-manifold,exchange-square,projection-squares,functor-laws",
         "--algebra", algebra, *few],
    ]


def test_every_function_no_command_reaches_is_allowed_with_a_reason(tmp_path, capsys):
    exits, names = reached(_commands(tmp_path))
    capsys.readouterr()
    assert exits == [0] * len(exits)
    unreached = package_functions() - names
    assert sorted(unreached) == sorted(ALLOWED)
    assert set(ALLOWED.values()) <= REASONS
