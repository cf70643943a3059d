"""Command line front end.

Three subcommands: `verify` runs the named verification suites and writes
a JSON report, `bracket` prints the bracket of two fields loaded from
files, `algebra` shows, checks or builds algebras from files or
constructor expressions.

Exit codes: 0 all checks passed, 1 a check failed or an algebra violated
the axioms, 2 malformed input.  Randomness is derived per verification
unit by hashing (seed, suite, qualifier), so reports are reproducible for
a fixed seed regardless of suite selection or ordering.

Each verification unit is one `Unit` row of `_unit_table`, run by
`run_unit`; adding a suite is one row in that table plus its check
function.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

from . import algebra, functional, functor, jets, programs, prolong, strongdiff
from .algebra import MAX_DIM, WeilAlgebra, algebra_from_json, make_basic, save_algebra, sum_algebra, tensor
from .errors import DomainError, InvariantViolation, NotMultiplicative, NotUnital, WeilError
from .exprs import Const, Var, format_expr, intpow, mul, simplify
from .functional import FIELD_KEYS as _FUNCTIONAL_KEYS
from .programs import (
    FIELD_KEYS as _MANIFOLD_KEYS,
    Program,
    VectorField,
    evaluate,
    field_from_json,
    poly_template,
    random_poly_field,
    random_poly_program,
)
from .reports import assemble_document, document_dumps, report_from_check, rng_for, tally

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# largest --samples accepted: 50 times the largest default count
MAX_SAMPLES = 10_000


# an algebra that violates the Weil axioms: exit 1, not malformed input
_AXIOM_ERRORS = (InvariantViolation, NotMultiplicative, NotUnital)


class CliError(Exception):
    """User-facing error with an exit code."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


@dataclass
class SuiteConfig:
    """The verify options; argparse holds their defaults."""

    suites: list
    seed: int
    tol: float | None
    samples: int | None
    algebras: list | None  # [WeilAlgebra] override, labelled by name
    fields: list

    def __post_init__(self):
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise CliError(EXIT_USAGE, "--tol must be positive and finite")
        if self.samples is not None and not 1 <= self.samples <= MAX_SAMPLES:
            raise CliError(EXIT_USAGE, "--samples must be from 1 to %d" % MAX_SAMPLES)
        if not self.suites:
            raise CliError(EXIT_USAGE, "--suite names no suite")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise CliError(EXIT_USAGE, "--suite names %s more than once" % ", ".join(repeated))
        for s in self.suites:
            if s not in SUITES:
                raise CliError(
                    EXIT_USAGE,
                    "unknown suite %r; choose from: all, %s" % (s, ", ".join(SUITES)),
                )
        for a in self.algebras or ():
            too_big = [
                "%s needs %s of dim %d (limit %d)" % (s, *need)
                for s, need in _override_sizes(a.dim).items()
                if s in self.suites and need[1] > need[2]
            ]
            if too_big:
                raise CliError(EXIT_USAGE, "--algebra %s is too large: %s" % (a.name, "; ".join(too_big)))
            # tensor and sum_algebra take unit_index 0 presentations only
            tensors = [
                "%s builds %s" % (s, _override_sizes(a.dim)[s][0])
                for s in ("exchange-square", "functor-laws")
                if s in self.suites
            ]
            if a.unit_index != 0 and tensors:
                raise CliError(
                    EXIT_USAGE,
                    "--algebra %s has its unit at basis vector %d, but tensor products need it at 0: %s"
                    % (a.name, a.unit_index, "; ".join(tensors)),
                )
        manifold = self.pair(VectorField)
        fibred = self.pair(functional.FunctionalVectorField)
        for name, fields in (("manifold", manifold), ("functional", fibred)):
            if fields and len(fields) != 2:
                message = "--field takes two %s fields, got %d" % (name, len(fields))
                raise CliError(EXIT_USAGE, message)
        if manifold and manifold[0].dim != manifold[1].dim:
            raise CliError(EXIT_USAGE, "--field pair lives on different dimensions")
        if fibred and len({(f.m, f.q1, f.q2) for f in fibred}) > 1:
            raise CliError(EXIT_USAGE, "--field functional pair has mismatched signatures")
        if fibred and "prolong-functional-jet" in self.suites and fibred[0].m > _JET_MAX_M:
            raise CliError(
                EXIT_USAGE,
                "--field functional pair is too large: prolong-functional-jet needs "
                "jet(%d,1) (limit m <= %d)" % (fibred[0].m, _JET_MAX_M),
            )
        if fibred and {"prolong-functional", "prolong-functional-jet"} & set(self.suites):
            # the pair's bracket has order r1 + r2, its jets in truncated(q1, r1 + r2)
            q1, r = fibred[0].q1, fibred[0].r + fibred[1].r
            dim = math.comb(q1 + r, r)
            if dim > MAX_DIM:
                raise CliError(
                    EXIT_USAGE,
                    "--field functional pair is too large: its bracket needs truncated(%d,%d) "
                    "of dim %d (limit %d)" % (q1, r, dim, MAX_DIM),
                )

    def pair(self, kind):
        """The two --field fields of this kind, or None if none was given."""
        return [f for f in self.fields if isinstance(f, kind)] or None

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
    the spec was S(), else None.  Axiom violations propagate to `main`,
    which maps them to exit code 1; any other failure is malformed input.
    """
    try:
        if os.path.exists(spec):
            return algebra_from_json(_load_json(spec)), None
        built = _SpecParser(spec).parse()
    except _AXIOM_ERRORS:
        raise
    except RecursionError:
        raise CliError(EXIT_USAGE, "algebra spec nested too deeply")
    except (WeilError, KeyError, ValueError, TypeError) as err:
        raise CliError(EXIT_USAGE, "%s: %s" % (spec, err))
    if isinstance(built, strongdiff.SAlgebraBundle):
        return built.algebra, built
    return built, None


# ---------------------------------------------------------------------------
# field files


def load_field(path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(EXIT_USAGE, "%s: field file must hold a JSON object" % path)
    try:
        if set(data) == _MANIFOLD_KEYS:
            field = field_from_json(data)
            if field.dim < 1:
                raise CliError(EXIT_USAGE, "%s: a field needs dim >= 1, got %d" % (path, field.dim))
            return field
        if set(data) == _FUNCTIONAL_KEYS:
            return functional.functional_field_from_json(data)
    except (WeilError, KeyError, ValueError, TypeError) as err:
        raise CliError(EXIT_USAGE, "%s: %s" % (path, err))
    raise CliError(
        EXIT_USAGE,
        "%s: unrecognized field keys %s; expected %s or %s"
        % (path, sorted(data), sorted(_MANIFOLD_KEYS), sorted(_FUNCTIONAL_KEYS)),
    )


# ---------------------------------------------------------------------------
# verification units


@dataclass(frozen=True)
class Unit:
    """One verification unit: a row of the unit table.

    `check(rng=, samples=, tol=)` returns a check result.  `samples` and
    `tol` are the unit's default sample count and certified tolerance,
    both ignored by a check that draws nothing; the checks give neither a
    default, so the row is the one place they are written.  `stream` names
    the unit's rng stream when it differs from the label.
    """

    suite: str
    label: str
    check: Callable[..., dict]
    samples: int = 0
    tol: float = 0.0
    stream: str | None = None


def run_unit(cfg: SuiteConfig, unit: Unit) -> dict:
    """Run one unit under the config's seed, --samples and --tol; returns
    its report entry.

    The unit draws from its own stream, hashed from (seed, suite, stream),
    so running order cannot shift any random draw.  A WeilError that stops
    the check becomes the unit's one failure.
    """
    rng = rng_for(cfg.seed, unit.suite, unit.stream or unit.label)
    try:
        result = unit.check(rng=rng, samples=cfg.count(unit.samples), tol=cfg.tolerance(unit.tol))
    except WeilError as err:
        result = {
            "max_error": float("inf"),
            "samples": 0,
            "failures": [{"error": "%s: %s" % (type(err).__name__, err)}],
        }
    return report_from_check(unit.suite, unit.label, result)


def _unsampled(check, *args, rng, samples, tol):
    """A check that draws nothing and certifies its own tolerance."""
    return check(*args)


def _custom_bracket(x, y, *, rng, samples, tol):
    """The oracle of the random-pair unit, on the --field pair: one pair of
    fields without parameters."""
    return tally(strongdiff.bracket_jacobian_deviations(x, y, 1, rng=rng, samples=samples, richardson=True), tol)


def _prolong_manifold(algebra, *, rng, samples, tol):
    # ten random quadratic field pairs on R^2, each a pair of coefficient
    # rows of one template
    quadratic = VectorField(2, poly_template(2, 2, 2))
    return tally(prolong.bracket_deviations(algebra, quadratic, quadratic, 10, samples, rng), tol)


def _frame_prolong(m, r, *, rng, samples, tol):
    xi = random_poly_field(rng, m, deg=2)
    return jets.check_frame_prolong(xi, r, samples=samples, rng=rng, tol=tol)


def _prolong_jet(m, r, *, rng, samples, tol):
    # two projectable fields on a bundle with a one-dimensional fibre
    pair = []
    for _ in range(2):
        base = random_poly_program(rng, m, m, deg=2)
        fiber = random_poly_program(rng, m + 1, 1, deg=2)
        pair.append(VectorField(m + 1, Program(m + 1, list(base.exprs) + list(fiber.exprs))))
    return jets.check_bracket_preserved(
        jets.jet_triple(m, r), *pair, samples=samples, rng=rng, tol=tol
    )


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
    """The --field functional pair, else two random order-1 fields drawn
    from the unit's separate field stream."""
    pair = cfg.pair(functional.FunctionalVectorField)
    if pair is not None:
        return pair
    rng = rng_for(cfg.seed, suite, label, "fields")
    return [functional.random_functional_field(rng, 1, 1, 1, 1) for _ in range(2)]


def _prolong_functional(cfg, algebra, *, rng, samples, tol):
    """The functional pair prolonged over the algebra."""
    x1, x2 = _functional_pair(cfg, "prolong-functional", algebra.name)
    prolong = partial(functional.functional_field_prolong, algebra)
    return functional.check_bracket_preserved(prolong, x1, x2, samples=samples, rng=rng, tol=tol)


# jet_triple(m, 1) inverts its frames by jets._matinv_generic, whose
# cofactor expansion grows as m!
_JET_MAX_M = 4


def _prolong_functional_jet(cfg, m, *, rng, samples, tol):
    """The functional pair over jet(m,1): m is 1 for the random pair, the
    --field pair's base dimension otherwise."""
    x1, x2 = _functional_pair(cfg, "prolong-functional-jet", "jet(%d,1)" % m)
    prolong = partial(functional.g_functional, jets.jet_triple(m, 1))
    return functional.check_bracket_preserved(prolong, x1, x2, samples=samples, rng=rng, tol=tol)


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


def _override_sizes(d: int) -> dict:
    """suite -> (what it builds from an --algebra override of dim d, that
    dim, the largest dim allowed), for each suite that builds more than A."""
    return {
        "exchange-square": ("tensor(A,S)", d * strongdiff.s_bundle().algebra.dim, MAX_DIM),
        "functor-laws": ("tensor(A,A)", d * d, MAX_DIM),
        # dense d^3 x d^3 matrices: at most MAX_DIM^4 floats, as many as validating dim MAX_DIM holds
        "projection-squares": ("A (x) A (x) A", d ** 3, MAX_DIM ** 2),
    }


def _unit_table(cfg: SuiteConfig) -> list:
    """Every unit of every suite, in report order.

    The algebra lists come from the memoized constructors, so each algebra
    is built once per process; an --algebra override replaces each list.
    A unit over algebras is labelled by their names.  Adding a suite is
    one row here plus its check.
    """
    dual, tr12, tr21 = (
        make_basic("dual"), make_basic("truncated", 1, 2), make_basic("truncated", 2, 1)
    )
    standard = cfg.algebras or [dual, tensor(dual, dual), tr12, tr21, sum_algebra(dual, dual)]
    small = cfg.algebras or [dual, tr12]
    combos = [(a, a) for a in cfg.algebras or ()] or [(dual, dual), (dual, tr12), (tr21, dual)]
    pair = cfg.pair(VectorField)
    custom = [] if pair is None else [
        Unit("bracket", "custom pair", partial(_custom_bracket, *pair), 20, 1e-6, "custom")
    ]
    fibred = cfg.pair(functional.FunctionalVectorField)
    jet_m = 1 if fibred is None else fibred[0].m
    orders = ((1, 1), (1, 2), (2, 1))
    return [
        Unit("sigma", "S", partial(_unsampled, strongdiff.check_sigma)),
        Unit("bracket", "dims 1-3", partial(strongdiff.check_bracket_jacobian, (1, 2, 3), 20), 20, 1e-6,
             "random"),
        *custom,
        *(Unit("prolong-manifold", a.name, partial(_prolong_manifold, a), 50, 1e-7)
          for a in standard),
        *(Unit("exchange-square", a.name, partial(strongdiff.check_exchange_square, a, 2), 100, 1e-12)
          for a in standard),
        *(Unit("projection-squares", "%s,%s,%s" % (a.name, b.name, c.name),
               partial(_unsampled, strongdiff.check_projection_squares, a, b, c))
          for a, b, c in itertools.product(small, repeat=3)),
        *(Unit("projection-squares", "tangent:" + a.name,
               partial(_unsampled, strongdiff.check_tangent_projection_identities, a))
          for a in small),
        *(Unit("functor-laws", "%s over %s" % (o.name, i.name),
               partial(functor.check_iterated_lift, o, i, 2), 20, 1e-10)
          for o, i in combos),
        *(Unit("jet-group", "jets(%d,%d)" % mr, partial(jets.check_jet_group, *mr), 200, 1e-10)
          for mr in ((1, 2), (2, 1), (2, 2))),
        *(Unit("frame-prolong", "frames(%d,%d)" % mr, partial(_frame_prolong, *mr), 20, 1e-5)
          for mr in orders),
        *(Unit("prolong-jet", "jet(%d,%d)" % mr, partial(_prolong_jet, *mr), 30, 1e-6)
          for mr in orders),
        Unit("prolong-jet", "jet(1,1) classical", jets.check_classical_prolongation, 20, 1e-8,
             "classical"),
        *(Unit("prolong-functional", a.name, partial(_prolong_functional, cfg, a), 30, 1e-6)
          for a in small),
        Unit("prolong-functional", "poly-family d=3",
             partial(functional.check_polynomial_family, _POLY_X1, _POLY_X2, 3), 10, 1e-7,
             "poly-family"),
        Unit("prolong-functional-jet", "jet(%d,1)" % jet_m, partial(_prolong_functional_jet, cfg, jet_m),
             30, 1e-6),
        *(Unit("locality", "F(m=%d;%d,%d;r=%d)" % sig,
               partial(functional.check_order_locality, *sig), 20, 1e-10)
          for sig in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 1))),
    ]


def work_counts() -> dict:
    """The package's running work totals: tapes, algebra products, oracle
    calls (`programs.COUNTS`, `algebra.COUNTS`, `jets.COUNTS`)."""
    return {**programs.COUNTS, **algebra.COUNTS, **jets.COUNTS}


def run_suites(cfg: SuiteConfig, profile: list | None = None) -> dict:
    """Run the units of the configured suites, in the order the suites are
    given, and assemble the report document.

    Given a list `profile`, each unit's run also appends its suite, label,
    samples, wall time in seconds and its share of each `work_counts()`
    total to it, in report order; the report holds none of them.
    """
    table = _unit_table(cfg)
    entries = []
    for unit in (u for suite in cfg.suites for u in table if u.suite == suite):
        counts = work_counts()
        start = time.perf_counter()
        entries.append(run_unit(cfg, unit))
        if profile is not None:
            profile.append({
                "suite": unit.suite,
                "label": unit.label,
                "samples": entries[-1]["samples"],
                "wall_s": time.perf_counter() - start,
                **{name: n - counts[name] for name, n in work_counts().items()},
            })
    return assemble_document(entries, cfg.seed)


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
        algebras = [algebra]
    fields = [load_field(p) for p in args.field or []]
    cfg = SuiteConfig(
        suites=suites,
        seed=args.seed,
        tol=args.tol,
        samples=args.samples,
        algebras=algebras,
        fields=fields,
    )
    profile = None if args.profile is None else []
    doc = run_suites(cfg, profile)
    for entry in doc["suites"]:
        line = "%-4s %-24s %-28s max|err| %9.3e  n=%d" % (
            entry["status"], entry["suite"], entry["algebra"], entry["max_error"], entry["samples"]
        )
        if entry["failures"]:
            line += "  first failure: " + _failure_text(entry["failures"][0])
        print(line)
    n_pass = sum(1 for e in doc["suites"] if e["status"] == "pass")
    print("overall: %s (%d/%d units)" % (doc["status"], n_pass, len(doc["suites"])))
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(document_dumps(doc))
        except OSError as err:
            raise CliError(EXIT_USAGE, "cannot write report: %s" % err)
    if profile is not None:
        try:
            with open(args.profile, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(profile, indent=1) + "\n")
        except OSError as err:
            raise CliError(EXIT_USAGE, "cannot write profile: %s" % err)
    return EXIT_PASS if doc["status"] == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# bracket


def _parse_point(text: str, dim: int):
    try:
        values = [float(p) for p in text.split(",")]
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
        # render every component and evaluate --at first, so a refusal prints nothing
        lines = [
            "[X,Y]_%d = %s" % (i, format_expr(simplify(e), names))
            for i, e in enumerate(br.components.exprs)
        ]
        if at_text is not None:
            at = _parse_point(at_text, br.dim)
            point = ", ".join("%g" % v for v in at)
            try:
                vals = evaluate(br.components, at)
                if not all(math.isfinite(v) for v in vals):
                    raise DomainError("a component is not finite")
            except WeilError as err:
                raise CliError(
                    EXIT_USAGE,
                    "bracket is undefined at (%s): %s: %s" % (point, type(err).__name__, err),
                )
            lines.append("at (%s) -> (%s)" % (point, ", ".join("%g" % v for v in vals)))
        print("\n".join(lines))
        return
    if isinstance(x, functional.FunctionalVectorField) and isinstance(
        y, functional.FunctionalVectorField
    ):
        if (x.m, x.q1, x.q2) != (y.m, y.q1, y.q2):
            raise CliError(EXIT_USAGE, "functional fields have mismatched signatures")
        if at_text is not None:
            raise CliError(EXIT_USAGE, "--at needs a fibre map; not supported for functional fields")
        br = functional.functional_bracket(x, y)
        names = functional.layout_names(br.m, br.q1, br.q2, br.r)
        lines = ["functional bracket: m=%d q1=%d q2=%d order=%d" % (br.m, br.q1, br.q2, br.r)]
        lines += [
            "xi_%d = %s" % (i, format_expr(simplify(e), names[: br.m]))
            for i, e in enumerate(br.xi.exprs)
        ]
        lines += [
            "D_%d = %s" % (s, format_expr(simplify(e), names)) for s, e in enumerate(br.D.exprs)
        ]
        print("\n".join(lines))
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


def _print_algebra(a: WeilAlgebra, bundle=None):
    print("%s: dim %d, width %d, height %d" % (a.name, a.dim, a.width, a.height))
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
    for flag, given in (("--report", args.report is not None), ("--show", args.show)):
        if given and args.verb != "build":
            raise CliError(EXIT_USAGE, "%s applies to algebra build, not algebra %s" % (flag, args.verb))
    if args.verb == "build" and os.path.exists(args.spec):
        raise CliError(EXIT_USAGE, "build expects a constructor expression, not a file")
    algebra, bundle = resolve_algebra(args.spec)
    if args.verb == "check":
        print(
            "ok: %s satisfies the Weil axioms (dim %d, width %d, height %d)"
            % (algebra.name, algebra.dim, algebra.width, algebra.height)
        )
        return EXIT_PASS
    if args.verb == "show" or args.show:
        _print_algebra(algebra, bundle)
    else:
        print("built %s: dim %d, width %d, height %d" % (algebra.name, algebra.dim, algebra.width, algebra.height))
    if args.report is not None:
        try:
            save_algebra(algebra, args.report)
        except OSError as err:
            raise CliError(EXIT_USAGE, "cannot write algebra: %s" % err)
    return EXIT_PASS


# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first `main` call of a
    process and reused: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="weilcalc",
        description="Verification suites and calculators for Weil-algebra calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites and emit a report")
    p_verify.add_argument("--suite", default="all", help="suite name, comma list, or 'all' (default)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for all sampled checks")
    p_verify.add_argument("--tol", type=float, default=None, help="acceptance threshold; relaxes sampled units certified tighter than this, never tightens below a unit's own oracle resolution; sigma, projection-squares and categorical failures (jet-group axioms, exchange-square membership and slots) ignore it")
    p_verify.add_argument("--samples", type=int, default=None, help="override per-unit sample counts")
    p_verify.add_argument("--report", metavar="PATH", default=None, help="write the JSON report here")
    p_verify.add_argument("--profile", metavar="PATH", default=None, help="write each unit's wall time here, as JSON")
    p_verify.add_argument("--algebra", metavar="FILE|EXPR", default=None, help="restrict algebra-parameterized suites to this algebra")
    p_verify.add_argument("--field", metavar="FILE", action="append", help="field file, given twice: a manifold pair adds the bracket unit 'custom pair' next to 'dims 1-3'; a functional pair replaces the random pair of prolong-functional and prolong-functional-jet")
    p_verify.set_defaults(func=cmd_verify)

    p_bracket = sub.add_parser("bracket", help="bracket of two fields from files")
    p_bracket.add_argument("--field", metavar="FILE", action="append", required=True, help="field file (give twice)")
    p_bracket.add_argument("--at", metavar="X0,X1,...", default=None, help="evaluate the bracket at this point")
    p_bracket.set_defaults(func=cmd_bracket)

    p_algebra = sub.add_parser("algebra", help="show, check or build an algebra")
    p_algebra.add_argument("verb", choices=("show", "check", "build"))
    p_algebra.add_argument("spec", help="algebra file or constructor expression")
    p_algebra.add_argument("--show", action="store_true", help="build only: print the structure table")
    p_algebra.add_argument("--report", metavar="PATH", default=None, help="build only: write the built algebra as JSON")
    p_algebra.set_defaults(func=cmd_algebra)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.code
    except _AXIOM_ERRORS as err:
        print("axiom failure: %s" % err, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
