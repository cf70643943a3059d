"""Reach audit: every function of weilcalc runs under some command, or
ALLOWED names it with the reason it stays.

The commands of `_commands` run in this process under `sys.setprofile`,
after the package's memoized constructors are cleared, so that every
algebra is built again whatever ran before.  A function is identified by
its module and `co_qualname`, never by line number; comprehensions count
as part of the function that holds them.  The set of functions that no
command calls must equal ALLOWED, so a newly dead function and a newly
reached one both fail.

The same pass audits arguments.  Every public function or method of the
package (`__init__` included, dataclass ones too) that has a defaulted
parameter and that some command calls must see each such parameter both
at its default and at another value (a function no command calls is
ALLOWED's).  The parameters not seen both ways must equal the keys of
ALLOWED_ARGS, named "module.qualname(parameter)": a default no command
moves off, or one every command overrides, is a second way of saying
one thing.
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
ENTRY = "entry point: the console script calls main() with no arguments"
WORKLOAD = "the render workload of perfbench passes it by keyword"
NESTED = "nested carriers: no command puts a primitive over elements whose coefficients are elements"
# the only reasons an entry may give: ROADMAP item 10 allows reprs, error
# paths, user-format writers and test oracles, plus what an open item needs
REASONS = {REPR, ERROR, WRITER, ORACLE, ITEM_6, ITEM_7}
ARG_REASONS = {REPR, ENTRY, WORKLOAD, NESTED}

ALLOWED = {
    "algebra.AlgebraElement.__repr__": REPR,
    "algebra.AlgebraHom.__repr__": REPR,
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
    "functional.fvf_value": ORACLE,  # one sampled functional velocity, point by point
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
}

ALLOWED_ARGS = {
    "algebra.AlgebraElement.analytic(shift)": NESTED,
    "cli.main(argv)": ENTRY,
    "exprs.format_expr(names)": REPR,
    "functional.random_functional_field(deg)": WORKLOAD,
    "functional.random_functional_field(scale)": WORKLOAD,
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


def _public(qualname: str) -> bool:
    return all(part == "__init__" or not part.startswith("_") for part in qualname.split("."))


def defaulted_parameters() -> dict:
    """code -> (name, {parameter: default}) for every public function or
    method of the package with a defaulted parameter, keyword-only ones
    included; lru_cache wrappers, static and class methods are unwrapped."""
    found = {}
    for stem in MODULES:
        module = importlib.import_module("weilcalc" if stem == "__init__" else "weilcalc." + stem)
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                fn = inspect.unwrap(getattr(value, "__func__", value))
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if not _public(fn.__qualname__):
                    continue
                defaults = {name: p.default for name, p in inspect.signature(fn).parameters.items()
                            if p.default is not inspect.Parameter.empty}
                if defaults:
                    found[fn.__code__] = ("%s.%s" % (stem, fn.__qualname__), defaults)
    return found


def _at_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except (TypeError, ValueError):  # an array compares entry by entry
        return False


def clear_memoized():
    """Empty every lru_cache defined in the package."""
    for stem in MODULES:
        module = importlib.import_module("weilcalc" if stem == "__init__" else "weilcalc." + stem)
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def reached(commands) -> tuple:
    """Exit codes of `cli.main` on each argv, the package functions called
    while they ran, and for each defaulted parameter of a called public
    function, as "module.qualname(parameter)", the set of what it was seen
    at: True for its default, False for another value."""
    codes = set()
    audited = defaulted_parameters()
    # parameters still to be seen both ways; a settled one is dropped, so
    # hot functions cost one dict lookup per call once they are settled
    pending = {code: dict(defaults) for code, (_, defaults) in audited.items()}
    seen = {}

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add(code)
            params = pending.get(code)
            if params:
                values = frame.f_locals
                for name, default in list(params.items()):
                    flags = seen.setdefault((code, name), set())
                    flags.add(_at_default(values[name], default))
                    if len(flags) == 2:
                        del params[name]

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
    args = {}
    for code, (name, defaults) in audited.items():
        if code in codes:
            for param in defaults:
                args["%s(%s)" % (name, param)] = seen[(code, param)]
    return exits, names, args


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
    # a valid algebra whose unit is basis vector 1
    unit_last = _write(tmp / "unit1.json", {
        "name": "dualswap", "dim": 2, "basis": ["e", "1"], "unit_index": 1,
        "structure": [[1, 1, 1, 1.0], [1, 0, 0, 1.0], [0, 1, 0, 1.0]],
    })
    few = ["--seed", "7", "--samples", "1"]
    return [
        ["verify", "--suite", "all", *few, "--report", str(tmp / "report.json")],
        ["verify", "--suite", "bracket", *few, "--tol", "1e-3", *m_pair, "--profile", str(tmp / "profile.json")],
        ["verify", "--suite", "prolong-functional,prolong-functional-jet", *few, *f_pair],
        ["bracket", *m_pair, "--at", "0.3,-0.4"],
        ["bracket", *f_pair],
        ["algebra", "show", "truncated(1,2)"],
        ["algebra", "build", "S()", "--show"],
        ["algebra", "build", "tensor(dual,truncated(1,2))", "--report", algebra],
        ["algebra", "check", algebra],
        ["algebra", "check", unit_last],
        ["verify", "--suite", "prolong-manifold,exchange-square,projection-squares,functor-laws",
         "--algebra", algebra, *few],
    ]


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    """One profiled pass of the audited commands, shared by both audits."""
    return reached(_commands(tmp_path_factory.mktemp("reach")))


def test_every_audited_command_passes(audit):
    exits, _, _ = audit
    assert exits == [0] * len(exits)


def test_every_function_no_command_reaches_is_allowed_with_a_reason(audit):
    _, names, _ = audit
    unreached = package_functions() - names
    assert sorted(unreached) == sorted(ALLOWED)
    assert set(ALLOWED.values()) <= REASONS


def test_every_default_is_seen_both_used_and_overridden_or_allowed_with_a_reason(audit):
    _, _, args = audit
    one_way = {name for name, flags in args.items() if flags != {True, False}}
    assert sorted(one_way) == sorted(ALLOWED_ARGS), {
        "seen one way only, not allowed": sorted(one_way - set(ALLOWED_ARGS)),
        "allowed, yet seen both ways or not called": sorted(set(ALLOWED_ARGS) - one_way),
    }
    assert set(ALLOWED_ARGS.values()) <= ARG_REASONS
