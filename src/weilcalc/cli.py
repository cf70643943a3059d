"""Command line front end.

Three subcommands: `verify` runs the named verification suites and writes
a JSON report, `bracket` prints the bracket of two fields loaded from
files, `algebra` shows, checks or builds algebras from files or
constructor expressions.

Exit codes: 0 all checks passed, 1 a check failed or an algebra violated
the axioms, 2 malformed input.  Randomness is derived per verification
unit by hashing (seed, suite, qualifier), so reports are reproducible for
a fixed seed regardless of suite selection or ordering.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dataclass_field

from . import functional, functor, jets, prolong, strongdiff
from ._monomials import monomials
from .algebra import WeilAlgebra, algebra_from_json, algebra_to_json, make_basic, sum_algebra, tensor
from .errors import InvariantViolation, NotMultiplicative, NotUnital, WeilError
from .exprs import Const, Var, format_expr, intpow, mul, simplify
from .programs import (
    Program,
    VectorField,
    evaluate,
    field_from_json,
    random_poly_field,
    random_poly_program,
)
from .reports import assemble_document, document_dumps, report_from_check, rng_for, tally

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

SUITES = (
    "sigma",
    "bracket",
    "prolong-manifold",
    "exchange-square",
    "projection-squares",
    "functor-laws",
    "jet-group",
    "frame-prolong",
    "prolong-jet",
    "prolong-functional",
    "prolong-functional-jet",
    "locality",
)


class CliError(Exception):
    """User-facing error with an exit code."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


@dataclass
class SuiteConfig:
    suites: list
    seed: int = 0
    tol: float | None = None
    samples: int | None = None
    report_path: str | None = None
    algebras: list | None = None  # [(label, WeilAlgebra)] override
    fields: list = dataclass_field(default_factory=list)

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise CliError(EXIT_USAGE, "--tol must be positive")
        if self.samples is not None and self.samples < 1:
            raise CliError(EXIT_USAGE, "--samples must be at least 1")
        for s in self.suites:
            if s not in SUITES:
                raise CliError(
                    EXIT_USAGE,
                    "unknown suite %r; choose from: all, %s" % (s, ", ".join(SUITES)),
                )

    def tolerance(self, certified: float) -> float:
        """Effective acceptance threshold for one unit.

        --tol relaxes units certified tighter than the request; it never
        tightens a unit below what its oracle can actually resolve.
        """
        if self.tol is None:
            return certified
        return max(self.tol, certified)

    def count(self, default: int) -> int:
        return default if self.samples is None else self.samples


# ---------------------------------------------------------------------------
# algebra specs: files or constructor expressions


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[(),]")


class _SpecParser:
    """Recursive-descent parser for constructor expressions.

    Grammar: expr := NAME [ '(' arg (',' arg)* ')' ]; args are integers or
    nested expressions.  Known constructors: reals, dual, truncated(k, r),
    tensor(a, b), sum(a, b), S().
    """

    def __init__(self, text: str):
        if _TOKEN.sub("", text).strip():
            raise CliError(EXIT_USAGE, "cannot tokenize algebra spec %r" % text)
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise CliError(
                EXIT_USAGE,
                "bad algebra spec: expected %s, got %r" % (expected or "a token", tok),
            )
        self.pos += 1
        return tok

    def parse(self):
        node = self._expr()
        if self._peek() is not None:
            raise CliError(EXIT_USAGE, "trailing input in algebra spec: %r" % self._peek())
        return node

    def _expr(self):
        name = self._take()
        if not name[0].isalpha() and name[0] != "_":
            raise CliError(EXIT_USAGE, "bad algebra spec: %r is not a constructor" % name)
        args = []
        if self._peek() == "(":
            self._take("(")
            if self._peek() != ")":
                args.append(self._arg())
                while self._peek() == ",":
                    self._take(",")
                    args.append(self._arg())
            self._take(")")
        return self._build(name, args)

    def _arg(self):
        tok = self._peek()
        if tok is not None and tok.isdigit():
            self._take()
            return int(tok)
        return self._expr()

    def _build(self, name, args):
        def algebras(n):
            if len(args) != n or not all(
                isinstance(a, (WeilAlgebra, strongdiff.SAlgebraBundle)) for a in args
            ):
                raise CliError(
                    EXIT_USAGE, "%s takes %d algebra argument(s)" % (name, n)
                )
            return [a.algebra if isinstance(a, strongdiff.SAlgebraBundle) else a for a in args]

        if name in ("reals", "dual"):
            if args:
                raise CliError(EXIT_USAGE, "%s takes no arguments" % name)
            return make_basic(name)
        if name == "truncated":
            if len(args) != 2 or not all(isinstance(a, int) for a in args):
                raise CliError(EXIT_USAGE, "truncated takes two integers, e.g. truncated(2,1)")
            return make_basic("truncated", args[0], args[1])
        if name == "tensor":
            a, b = algebras(2)
            return tensor(a, b)
        if name == "sum":
            a, b = algebras(2)
            return sum_algebra(a, b)
        if name == "S":
            if args:
                raise CliError(EXIT_USAGE, "S takes no arguments")
            return strongdiff.make_S()
        raise CliError(
            EXIT_USAGE,
            "unknown constructor %r; known: reals, dual, truncated(k,r), tensor(a,b), sum(a,b), S()" % name,
        )


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise CliError(EXIT_USAGE, "cannot read %s: %s" % (path, err))
    except json.JSONDecodeError as err:
        raise CliError(
            EXIT_USAGE,
            "%s:%d:%d: invalid JSON: %s" % (path, err.lineno, err.colno, err.msg),
        )
    except RecursionError:
        raise CliError(EXIT_USAGE, "%s: input nested too deeply" % path)


def resolve_algebra(spec: str):
    """An existing path loads a JSON file; anything else parses as an expression.

    Returns (algebra, bundle): bundle is the strong-difference package when
    the spec was S(), else None.  Axiom violations propagate so callers can
    map them to exit code 1.
    """
    if os.path.exists(spec):
        data = _load_json(spec)
        try:
            return algebra_from_json(data), None
        except InvariantViolation:
            raise
        except (WeilError, KeyError, ValueError, TypeError) as err:
            raise CliError(EXIT_USAGE, "%s: %s" % (spec, err))
    built = _SpecParser(spec).parse()
    if isinstance(built, strongdiff.SAlgebraBundle):
        return built.algebra, built
    return built, None


def _standard_algebras():
    return [
        ("dual", make_basic("dual")),
        ("tensor(dual,dual)", tensor(make_basic("dual"), make_basic("dual"))),
        ("truncated(1,2)", make_basic("truncated", 1, 2)),
        ("truncated(2,1)", make_basic("truncated", 2, 1)),
        ("sum(dual,dual)", sum_algebra(make_basic("dual"), make_basic("dual"))),
    ]


def _pr1_algebras(cfg):
    return cfg.algebras if cfg.algebras else _standard_algebras()


def _small_algebras(cfg):
    if cfg.algebras:
        return cfg.algebras
    return [("dual", make_basic("dual")), ("truncated(1,2)", make_basic("truncated", 1, 2))]


# ---------------------------------------------------------------------------
# field files


_MANIFOLD_KEYS = {"dim", "components"}
_FUNCTIONAL_KEYS = {"m", "q1", "q2", "r", "xi", "D"}


def load_field(path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(EXIT_USAGE, "%s: field file must hold a JSON object" % path)
    try:
        if set(data) == _MANIFOLD_KEYS:
            return field_from_json(data)
        if set(data) == _FUNCTIONAL_KEYS:
            return functional.functional_field_from_json(data)
    except (WeilError, KeyError, ValueError, TypeError) as err:
        raise CliError(EXIT_USAGE, "%s: %s" % (path, err))
    raise CliError(
        EXIT_USAGE,
        "%s: unrecognized field keys %s; expected %s or %s"
        % (path, sorted(data), sorted(_MANIFOLD_KEYS), sorted(_FUNCTIONAL_KEYS)),
    )


def functional_layout_names(m: int, q1: int, q2: int, r: int) -> list:
    """Variable names matching the documented (x, y, z_alpha) layout."""
    names = ["x%d" % i for i in range(m)] + ["y%d" % j for j in range(q1)]
    for alpha in monomials(q1, r):
        stem = "z" + "".join(str(k) for k in alpha)
        if q2 == 1:
            names.append(stem)
        else:
            names.extend("%s_%d" % (stem, s) for s in range(q2))
    return names


# ---------------------------------------------------------------------------
# verification units

# A unit is (suite, context label, thunk); thunks close over their own rng
# so execution order cannot shift any random stream.


def _units_sigma(cfg):
    return [("sigma", "S", strongdiff.check_sigma)]


def _units_bracket(cfg):
    tol = cfg.tolerance(1e-6)

    def run():
        rng = rng_for(cfg.seed, "bracket", "random")
        return strongdiff.check_bracket_jacobian(
            dims=(1, 2, 3), pairs=20, points=cfg.count(20), rng=rng, tol=tol
        )

    units = [("bracket", "dims 1-3", run)]
    manifold = [f for f in cfg.fields if isinstance(f, VectorField)]
    if len(manifold) == 2:
        x, y = manifold
        if x.dim != y.dim:
            raise CliError(EXIT_USAGE, "--field pair lives on different dimensions")

        def run_custom():
            # same oracle as the random-pair suite, on user-supplied fields
            rng = rng_for(cfg.seed, "bracket", "custom")
            block = rng.uniform(-1.0, 1.0, size=(cfg.count(20), x.dim))
            devs = strongdiff.jacobian_bracket_deviation(x, y, block, richardson=True)
            return tally((({"trial": trial}, float(dev)) for trial, dev in enumerate(devs)), tol)

        units.append(("bracket", "custom pair", run_custom))
    return units


def _units_prolong_manifold(cfg):
    units = []
    for label, algebra in _pr1_algebras(cfg):

        def run(label=label, algebra=algebra):
            rng = rng_for(cfg.seed, "prolong-manifold", label)

            def deviations():
                # ten random field pairs; a failure names its pair as `unit`
                for unit in range(10):
                    xf = random_poly_field(rng, 2, deg=2, scale=0.5)
                    yf = random_poly_field(rng, 2, deg=2, scale=0.5)
                    for tag, dev in prolong.bracket_deviations(algebra, xf, yf, cfg.count(50), rng):
                        yield {**tag, "unit": unit}, dev

            return tally(deviations(), cfg.tolerance(1e-7))

        units.append(("prolong-manifold", label, run))
    return units


def _units_exchange_square(cfg):
    units = []
    for label, algebra in _pr1_algebras(cfg):

        def run(label=label, algebra=algebra):
            rng = rng_for(cfg.seed, "exchange-square", label)
            return strongdiff.check_exchange_square(
                algebra, n=2, samples=cfg.count(100), rng=rng, tol=cfg.tolerance(1e-12)
            )

        units.append(("exchange-square", label, run))
    return units


def _units_projection_squares(cfg):
    choices = _small_algebras(cfg)
    units = []
    for (la, a), (lb, b), (lc, c) in itertools.product(choices, repeat=3):
        label = "%s,%s,%s" % (la, lb, lc)

        def run(a=a, b=b, c=c):
            return strongdiff.check_projection_squares(a, b, c)

        units.append(("projection-squares", label, run))
    for la, a in choices:

        def run_tangent(a=a):
            return strongdiff.check_tangent_projection_identities(a)

        units.append(("projection-squares", "tangent:" + la, run_tangent))
    return units


def _units_functor_laws(cfg):
    if cfg.algebras:
        combos = [(la, a, la, a) for la, a in cfg.algebras]
    else:
        dual = make_basic("dual")
        tr12 = make_basic("truncated", 1, 2)
        tr21 = make_basic("truncated", 2, 1)
        combos = [
            ("dual", dual, "dual", dual),
            ("dual", dual, "truncated(1,2)", tr12),
            ("truncated(2,1)", tr21, "dual", dual),
        ]
    units = []
    for lo, outer, li, inner in combos:
        label = "%s over %s" % (lo, li)

        def run(label=label, outer=outer, inner=inner):
            rng = rng_for(cfg.seed, "functor-laws", label)
            return functor.check_iterated_lift(
                outer, inner, programs=cfg.count(20), n=2, rng=rng, tol=cfg.tolerance(1e-10)
            )

        units.append(("functor-laws", label, run))
    return units


def _units_jet_group(cfg):
    units = []
    for m, r in ((1, 2), (2, 1), (2, 2)):
        label = "jets(%d,%d)" % (m, r)

        def run(m=m, r=r, label=label):
            rng = rng_for(cfg.seed, "jet-group", label)
            return jets.check_jet_group(
                m, r, samples=cfg.count(200), rng=rng, tol=cfg.tolerance(1e-10)
            )

        units.append(("jet-group", label, run))
    return units


def _units_frame_prolong(cfg):
    units = []
    for m, r in ((1, 1), (1, 2), (2, 1)):
        label = "frames(%d,%d)" % (m, r)

        def run(m=m, r=r, label=label):
            rng = rng_for(cfg.seed, "frame-prolong", label)
            xi = random_poly_field(rng, m, deg=2, scale=0.5)
            return jets.check_frame_prolong(
                xi, r, samples=cfg.count(20), rng=rng, tol=cfg.tolerance(1e-5)
            )

        units.append(("frame-prolong", label, run))
    return units


def _projectable_pair(rng, m):
    """Two projectable fields on a bundle with a one-dimensional fibre."""
    fields = []
    for _ in range(2):
        base = random_poly_program(rng, m, m, deg=2, scale=0.5)
        fiber = random_poly_program(rng, m + 1, 1, deg=2, scale=0.5)
        fields.append(VectorField(m + 1, Program(m + 1, list(base.exprs) + list(fiber.exprs))))
    return fields


def _units_prolong_jet(cfg):
    units = []
    for m, r in ((1, 1), (1, 2), (2, 1)):
        label = "jet(%d,%d)" % (m, r)

        def run(m=m, r=r, label=label):
            rng = rng_for(cfg.seed, "prolong-jet", label)
            triple = jets.jet_triple(m, r)
            x1, x2 = _projectable_pair(rng, m)
            return jets.check_bracket_preserved(
                triple, x1, x2, samples=cfg.count(30), rng=rng, tol=cfg.tolerance(1e-6)
            )

        units.append(("prolong-jet", label, run))

    def run_classical():
        rng = rng_for(cfg.seed, "prolong-jet", "classical")
        return jets.check_classical_prolongation(
            samples=cfg.count(20), rng=rng, tol=cfg.tolerance(1e-8)
        )

    units.append(("prolong-jet", "jet(1,1) classical", run_classical))
    return units


# fixed order-1 pair whose induced motion preserves cubic fibre maps;
# layout: x0 base, y0 source, z0 value, z1 first derivative
_POLY_X1 = functional.FunctionalVectorField(
    1, 1, 1, 1,
    Program(1, [mul(Const(0.4), intpow(Var(0), 2))]),
    Program(4, [Var(0) * Var(1) * Var(3) + Const(0.5) * Var(2)]),
)
_POLY_X2 = functional.FunctionalVectorField(
    1, 1, 1, 1,
    Program(1, [Const(1.0) + Const(0.3) * Var(0)]),
    Program(4, [Var(3) - Const(0.2) * Var(1) * Var(3) + Var(0) * Var(2)]),
)


def _functional_pair(cfg, suite, label):
    pair = [f for f in cfg.fields if isinstance(f, functional.FunctionalVectorField)]
    if len(pair) == 2:
        a, b = pair
        if (a.m, a.q1, a.q2) != (b.m, b.q1, b.q2):
            raise CliError(EXIT_USAGE, "--field functional pair has mismatched signatures")
        return pair
    rng = rng_for(cfg.seed, suite, label, "fields")
    return [
        functional.random_functional_field(rng, 1, 1, 1, 1),
        functional.random_functional_field(rng, 1, 1, 1, 1),
    ]


def _units_prolong_functional(cfg):
    units = []
    for label, algebra in _small_algebras(cfg):

        def run(label=label, algebra=algebra):
            x1, x2 = _functional_pair(cfg, "prolong-functional", label)
            rng = rng_for(cfg.seed, "prolong-functional", label)
            return functional.check_bracket_preserved(
                algebra, x1, x2, samples=cfg.count(30), rng=rng, tol=cfg.tolerance(1e-6)
            )

        units.append(("prolong-functional", label, run))

    def run_family():
        rng = rng_for(cfg.seed, "prolong-functional", "poly-family")
        return functional.check_polynomial_family(
            _POLY_X1, _POLY_X2, d=3, samples=cfg.count(10), rng=rng, tol=cfg.tolerance(1e-7)
        )

    units.append(("prolong-functional", "poly-family d=3", run_family))
    return units


def _units_prolong_functional_jet(cfg):
    def run():
        x1, x2 = _functional_pair(cfg, "prolong-functional-jet", "jet(1,1)")
        rng = rng_for(cfg.seed, "prolong-functional-jet", "jet(1,1)")
        triple = jets.jet_triple(1, 1)
        return functional.check_jet_bracket_preserved(
            triple, x1, x2, samples=cfg.count(30), rng=rng, tol=cfg.tolerance(1e-6)
        )

    return [("prolong-functional-jet", "jet(1,1)", run)]


def _units_locality(cfg):
    units = []
    for m, q1, q2, r in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 1)):
        label = "F(m=%d;%d,%d;r=%d)" % (m, q1, q2, r)

        def run(m=m, q1=q1, q2=q2, r=r, label=label):
            rng = rng_for(cfg.seed, "locality", label)
            return functional.check_order_locality(
                m, q1, q2, r, samples=cfg.count(20), rng=rng, tol=cfg.tolerance(1e-10)
            )

        units.append(("locality", label, run))
    return units


_SUITE_BUILDERS = {
    "sigma": _units_sigma,
    "bracket": _units_bracket,
    "prolong-manifold": _units_prolong_manifold,
    "exchange-square": _units_exchange_square,
    "projection-squares": _units_projection_squares,
    "functor-laws": _units_functor_laws,
    "jet-group": _units_jet_group,
    "frame-prolong": _units_frame_prolong,
    "prolong-jet": _units_prolong_jet,
    "prolong-functional": _units_prolong_functional,
    "prolong-functional-jet": _units_prolong_functional_jet,
    "locality": _units_locality,
}


def run_suites(cfg: SuiteConfig) -> dict:
    """Execute all configured units and assemble the report document."""
    units = [unit for suite in cfg.suites for unit in _SUITE_BUILDERS[suite](cfg)]
    reports = []
    for suite, label, thunk in units:
        try:
            result = thunk()
        except WeilError as err:
            result = {
                "max_error": float("inf"),
                "samples": 0,
                "failures": [{"error": "%s: %s" % (type(err).__name__, err)}],
            }
        reports.append(report_from_check(suite, label, result))
    return assemble_document(reports, cfg.seed)


def _failure_text(failure: dict) -> str:
    """One failure entry of a report as console text, e.g. `trial=3 deviation=2.000e-07`."""
    if "error" in failure:
        return str(failure["error"])
    return " ".join(
        "%s=%s" % (k, "%.3e" % v if isinstance(v, float) else v) for k, v in failure.items()
    )


def cmd_verify(args) -> int:
    if args.suite in (None, "all"):
        suites = list(SUITES)
    else:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    algebras = None
    if args.algebra:
        algebra, _ = resolve_algebra(args.algebra)
        algebras = [(algebra.name, algebra)]
    fields = [load_field(p) for p in args.field or []]
    cfg = SuiteConfig(
        suites=suites,
        seed=args.seed,
        tol=args.tol,
        samples=args.samples,
        report_path=args.report,
        algebras=algebras,
        fields=fields,
    )
    doc = run_suites(cfg)
    for entry in doc["suites"]:
        line = "%-4s %-24s %-28s max|err| %9.3e  n=%d" % (
            entry["status"], entry["suite"], entry["algebra"], entry["max_error"], entry["samples"]
        )
        if entry["failures"]:
            line += "  first failure: " + _failure_text(entry["failures"][0])
        print(line)
    n_pass = sum(1 for e in doc["suites"] if e["status"] == "pass")
    print("overall: %s (%d/%d units)" % (doc["status"], n_pass, len(doc["suites"])))
    if cfg.report_path:
        try:
            with open(cfg.report_path, "w", encoding="utf-8") as fh:
                fh.write(document_dumps(doc))
        except OSError as err:
            raise CliError(EXIT_USAGE, "cannot write report: %s" % err)
    return EXIT_PASS if doc["status"] == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# bracket


def _parse_point(text: str, dim: int):
    parts = [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CliError(EXIT_USAGE, "--at expects comma-separated floats, got %r" % text)
    if not all(math.isfinite(v) for v in values):
        raise CliError(EXIT_USAGE, "--at coordinates must be finite, got %r" % text)
    if len(values) != dim:
        raise CliError(EXIT_USAGE, "--at has %d coordinates, field needs %d" % (len(values), dim))
    return values


def cmd_bracket(args) -> int:
    paths = args.field or []
    if len(paths) != 2:
        raise CliError(EXIT_USAGE, "bracket needs exactly two --field files")
    x, y = (load_field(p) for p in paths)
    try:
        _print_bracket(x, y, args.at)
    except WeilError as err:
        raise CliError(
            EXIT_USAGE, "cannot form the bracket: %s: %s" % (type(err).__name__, err)
        )
    return EXIT_PASS


def _print_bracket(x, y, at_text):
    if isinstance(x, VectorField) and isinstance(y, VectorField):
        if x.dim != y.dim:
            raise CliError(
                EXIT_USAGE, "fields live on dimensions %d and %d" % (x.dim, y.dim)
            )
        br = strongdiff.bracket(x, y)
        names = ["x"] if br.dim == 1 else ["x%d" % i for i in range(br.dim)]
        for i, e in enumerate(br.components.exprs):
            print("[X,Y]_%d = %s" % (i, format_expr(simplify(e), names)))
        if at_text is not None:
            at = _parse_point(at_text, br.dim)
            point = ", ".join("%g" % v for v in at)
            try:
                vals = evaluate(br.components, at)
            except WeilError as err:
                raise CliError(
                    EXIT_USAGE,
                    "bracket is undefined at (%s): %s: %s" % (point, type(err).__name__, err),
                )
            print("at (%s) -> (%s)" % (point, ", ".join("%g" % v for v in vals)))
        return
    if isinstance(x, functional.FunctionalVectorField) and isinstance(
        y, functional.FunctionalVectorField
    ):
        if (x.m, x.q1, x.q2) != (y.m, y.q1, y.q2):
            raise CliError(EXIT_USAGE, "functional fields have mismatched signatures")
        if at_text is not None:
            raise CliError(EXIT_USAGE, "--at needs a fibre map; not supported for functional fields")
        br = functional.functional_bracket(x, y)
        names = functional_layout_names(br.m, br.q1, br.q2, br.r)
        print("functional bracket: m=%d q1=%d q2=%d order=%d" % (br.m, br.q1, br.q2, br.r))
        for i, e in enumerate(br.xi.exprs):
            print("xi_%d = %s" % (i, format_expr(simplify(e), names[: br.m])))
        for s, e in enumerate(br.D.exprs):
            print("D_%d = %s" % (s, format_expr(simplify(e), names)))
        return
    raise CliError(EXIT_USAGE, "cannot mix a manifold field with a functional field")


# ---------------------------------------------------------------------------
# algebra


def _fmt_combo(coeffs, labels) -> str:
    terms = []
    for c, lab in zip(coeffs, labels):
        c = float(c)
        if c == 0.0:
            continue
        if lab == "1":
            terms.append("%g" % c)
        elif c == 1.0:
            terms.append(lab)
        elif c == -1.0:
            terms.append("-" + lab)
        else:
            terms.append("%g %s" % (c, lab))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _width_str(a: WeilAlgebra) -> str:
    return "?" if a.width is None else str(a.width)


def _print_algebra(a: WeilAlgebra, bundle=None):
    print("%s: dim %d, width %s, height %d" % (a.name, a.dim, _width_str(a), a.height))
    print("basis: %s" % ", ".join(a.basis_labels))
    if a.dim <= 12:
        for i in range(a.dim):
            for j in range(i, a.dim):
                if i == a.unit_index or j == a.unit_index:
                    continue
                print(
                    "  %s * %s = %s"
                    % (a.basis_labels[i], a.basis_labels[j], _fmt_combo(a.structure[i, j], a.basis_labels))
                )
    else:
        print("  (structure table elided for dim > 12)")
    if bundle is not None:
        images = [
            "%s -> %s" % (lab, _fmt_combo(bundle.sigma.matrix[:, j], bundle.sigma.target.basis_labels))
            for j, lab in enumerate(a.basis_labels)
        ]
        print("sigma: " + "; ".join(images))


def cmd_algebra(args) -> int:
    spec = args.spec if args.spec is not None else args.algebra
    if spec is None:
        raise CliError(EXIT_USAGE, "give an algebra as a positional spec or via --algebra")
    if args.spec is not None and args.algebra is not None:
        raise CliError(EXIT_USAGE, "give either a positional spec or --algebra, not both")
    if args.verb == "build" and os.path.exists(spec):
        raise CliError(EXIT_USAGE, "build expects a constructor expression, not a file")
    try:
        algebra, bundle = resolve_algebra(spec)
    except (InvariantViolation, NotMultiplicative, NotUnital) as err:
        print("axiom failure: %s" % err, file=sys.stderr)
        return EXIT_FAIL

    if args.verb == "check":
        print(
            "ok: %s satisfies the Weil axioms (dim %d, width %s, height %d)"
            % (algebra.name, algebra.dim, _width_str(algebra), algebra.height)
        )
        return EXIT_PASS
    if args.verb == "show" or (args.verb == "build" and args.show):
        _print_algebra(algebra, bundle)
    elif args.verb == "build":
        print("built %s: dim %d, width %s, height %d" % (algebra.name, algebra.dim, _width_str(algebra), algebra.height))
    if args.verb == "build" and args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(algebra_to_json(algebra), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as err:
            raise CliError(EXIT_USAGE, "cannot write algebra: %s" % err)
    return EXIT_PASS


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilcalc",
        description="Verification suites and calculators for Weil-algebra calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites and emit a report")
    p_verify.add_argument("--suite", default="all", help="suite name, comma list, or 'all' (default)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for all sampled checks")
    p_verify.add_argument("--tol", type=float, default=None, help="acceptance threshold; relaxes units certified tighter than this, never tightens below a unit's own oracle resolution")
    p_verify.add_argument("--samples", type=int, default=None, help="override per-unit sample counts")
    p_verify.add_argument("--report", metavar="PATH", default=None, help="write the JSON report here")
    p_verify.add_argument("--algebra", metavar="FILE|EXPR", default=None, help="restrict algebra-parameterized suites to this algebra")
    p_verify.add_argument("--field", metavar="FILE", action="append", help="field file; a matching pair replaces the random fields of the bracket or functional suites")
    p_verify.set_defaults(func=cmd_verify)

    p_bracket = sub.add_parser("bracket", help="bracket of two fields from files")
    p_bracket.add_argument("--field", metavar="FILE", action="append", required=True, help="field file (give twice)")
    p_bracket.add_argument("--at", metavar="X0,X1,...", default=None, help="evaluate the bracket at this point")
    p_bracket.set_defaults(func=cmd_bracket)

    p_algebra = sub.add_parser("algebra", help="show, check or build an algebra")
    p_algebra.add_argument("verb", choices=("show", "check", "build"))
    p_algebra.add_argument("spec", nargs="?", default=None, help="algebra file or constructor expression")
    p_algebra.add_argument("--algebra", metavar="FILE|EXPR", default=None, help="alternative to the positional spec")
    p_algebra.add_argument("--show", action="store_true", help="print the structure table after build")
    p_algebra.add_argument("--report", metavar="PATH", default=None, help="write the built algebra as JSON")
    p_algebra.set_defaults(func=cmd_algebra)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
