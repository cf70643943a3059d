"""The three benchmark workloads and their correctness gates.

Each workload is one client in one thread that sends its next request
only when the previous one has returned (a closed loop).  `setup` builds
the inputs from the seed and fills the program's lazy caches; `run_pass`
times the program's calls and keeps what they returned; `check` judges
those outputs against references computed outside the timed calls.  A
pass's wall time is the time spent inside the program's calls.

Why these three:
- verify-all is the headline command, dominated by float tree evaluation
  (`bracket_value`, the finite-difference oracle) and small algebras;
- taylor-lift lifts fixed programs over algebras of dimension 13-20, so
  algebra multiplication and analytic primitives dominate and the tree
  walk is a small share;
- render builds fresh symbolic trees on every request and never reuses
  them, so a compile-once cache or tape shows its cost there.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import re
import time

import numpy as np

clock = time.perf_counter

# (suite, label, samples) of `verify --suite all`, fixed by the suites and
# independent of the seed: 42 units, 5,229 samples.
VERIFY_UNITS = (
    ("sigma", "S", 25),
    ("bracket", "dims 1-3", 1200),
    ("prolong-manifold", "dual", 500),
    ("prolong-manifold", "tensor(dual,dual)", 500),
    ("prolong-manifold", "truncated(1,2)", 500),
    ("prolong-manifold", "truncated(2,1)", 500),
    ("prolong-manifold", "sum(dual,dual)", 500),
    ("exchange-square", "dual", 100),
    ("exchange-square", "tensor(dual,dual)", 100),
    ("exchange-square", "truncated(1,2)", 100),
    ("exchange-square", "truncated(2,1)", 100),
    ("exchange-square", "sum(dual,dual)", 100),
    ("projection-squares", "dual,dual,dual", 1),
    ("projection-squares", "dual,dual,truncated(1,2)", 1),
    ("projection-squares", "dual,truncated(1,2),dual", 1),
    ("projection-squares", "dual,truncated(1,2),truncated(1,2)", 1),
    ("projection-squares", "truncated(1,2),dual,dual", 1),
    ("projection-squares", "truncated(1,2),dual,truncated(1,2)", 1),
    ("projection-squares", "truncated(1,2),truncated(1,2),dual", 1),
    ("projection-squares", "truncated(1,2),truncated(1,2),truncated(1,2)", 1),
    ("projection-squares", "tangent:dual", 3),
    ("projection-squares", "tangent:truncated(1,2)", 3),
    ("functor-laws", "dual over dual", 20),
    ("functor-laws", "dual over truncated(1,2)", 20),
    ("functor-laws", "truncated(2,1) over dual", 20),
    ("jet-group", "jets(1,2)", 200),
    ("jet-group", "jets(2,1)", 200),
    ("jet-group", "jets(2,2)", 200),
    ("frame-prolong", "frames(1,1)", 20),
    ("frame-prolong", "frames(1,2)", 20),
    ("frame-prolong", "frames(2,1)", 20),
    ("prolong-jet", "jet(1,1)", 30),
    ("prolong-jet", "jet(1,2)", 30),
    ("prolong-jet", "jet(2,1)", 30),
    ("prolong-jet", "jet(1,1) classical", 20),
    ("prolong-functional", "dual", 30),
    ("prolong-functional", "truncated(1,2)", 30),
    ("prolong-functional", "poly-family d=3", 10),
    ("prolong-functional-jet", "jet(1,1)", 30),
    ("locality", "F(m=1;1,1;r=1)", 20),
    ("locality", "F(m=1;1,1;r=2)", 20),
    ("locality", "F(m=1;2,1;r=1)", 20),
)

def close_to(got, want, rel):
    """Elementwise |got - want| <= rel * (1 + |want|), all finite."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return (
        got.shape == want.shape
        and bool(np.all(np.isfinite(got)))
        and bool(np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want))))
    )


def taylor_program(wc, rng):
    """R^2 -> R^2: a dense cubic plus sin, exp, log(1+x^2) and 1/(2+x^2) terms."""
    ex = wc.exprs
    poly = wc.programs.random_poly_program(rng, 2, 2, deg=3, scale=0.5)
    body = []
    for i, e in enumerate(poly.exprs):
        x, y = ex.Var(i), ex.Var(1 - i)
        c = [ex.Const(float(v)) for v in rng.uniform(-0.5, 0.5, size=4)]
        e = e + c[0] * ex.prim("sin", x + y)
        e = e + c[1] * ex.prim("exp", x)
        e = e + c[2] * ex.prim("log", ex.Const(1.0) + ex.intpow(y, 2))
        e = e + c[3] / (ex.Const(2.0) + ex.intpow(x, 2))
        body.append(e)
    return wc.programs.Program(2, body)


class VerifyAll:
    """One pass is `weilcalc verify --suite all`, called in-process.

    The pass is one request: its latency is the pass's wall time, while
    the items counted per second are the 5,229 sampled checks it makes.
    """

    name = "verify-all"

    def setup(self, wc, seed, tmpdir):
        self.wc = wc
        self.seed = seed
        self.report = os.path.join(tmpdir, "verify-report.json")
        wc.strongdiff.s_bundle()
        for m, r in ((1, 1), (1, 2), (2, 1)):
            wc.jets.jet_triple(m, r)

    def verify(self, suites="all"):
        argv = ["verify", "--suite", suites, "--seed", str(self.seed), "--report", self.report]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.wc.cli.main(argv)

    def run_pass(self):
        if os.path.exists(self.report):
            os.remove(self.report)
        t0 = clock()
        try:
            self.rc = self.verify()
        except Exception as err:  # judged as a failed pass by check()
            self.rc = err
        wall = clock() - t0
        return wall, [wall], sum(n for _, _, n in VERIFY_UNITS)

    def check(self, paused):
        return check_verify_report(self.rc, self.report)

    def suite_times(self):
        """Wall time of `verify --suite <name>`, one suite at a time,
        and the suites that did not pass."""
        out = {}
        errors = []
        for suite in self.wc.cli.SUITES:
            t0 = clock()
            rc = self.verify(suite)
            out["cli.suite_s." + suite] = clock() - t0
            if rc != 0:
                errors.append("verify --suite %s exited %r" % (suite, rc))
        return out, errors


def check_verify_report(rc, path):
    """(attempted, failed, errors): samples of units that are missing,
    failed, or sampled a different number of times count as failed."""
    attempted = sum(n for _, _, n in VERIFY_UNITS)
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        units = [(e["suite"], e["algebra"], e["samples"], e["status"]) for e in doc["suites"]]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return attempted, attempted, ["report unreadable: %s" % err]
    if rc != 0:
        errors.append("verify exited %r" % rc)
    got = {(s, l): (n, st) for s, l, n, st in units}
    if len(units) != len(VERIFY_UNITS) or [u[:2] for u in units] != [u[:2] for u in VERIFY_UNITS]:
        errors.append("unit labels differ from the 42 fixed units")
    failed = 0
    for suite, label, n in VERIFY_UNITS:
        have = got.get((suite, label))
        if have is None or have != (n, "pass"):
            failed += n
            errors.append("%s %s: %r, want (%d, 'pass')" % (suite, label, have, n))
    if rc != 0 and failed == 0:
        failed = attempted
    return attempted, failed, errors


class TaylorLift:
    """Pointwise lifts of fixed programs over four algebras of dim 13-20."""

    name = "taylor-lift"
    programs = 4
    points = 8  # per (program, algebra)
    rendered = 2  # points per (program, algebra) checked against lift_program

    def setup(self, wc, seed, tmpdir):
        self.wc = wc
        rng = np.random.default_rng([seed, 2])
        t13 = wc.algebra.make_basic("truncated", 1, 3)
        algebras = [
            wc.algebra.make_basic("truncated", 2, 4),
            wc.algebra.make_basic("truncated", 3, 3),
            wc.algebra.make_basic("truncated", 1, 12),
            wc.algebra.tensor(t13, t13),
        ]
        progs = [taylor_program(wc, rng) for _ in range(self.programs)]
        self.items = []
        for f in progs:
            for a in algebras:
                gens = a.generator_elements()
                for _ in range(self.points):
                    base = rng.uniform(-0.8, 0.8, size=2)
                    v = rng.uniform(-1.0, 1.0, size=(2, len(gens)))
                    coords = []
                    for i in range(2):
                        el = a.unit(float(base[i]))
                        for j, g in enumerate(gens):
                            el = el + g * float(v[i, j])
                        coords.append(el)
                    point = wc.functor.WeilPoint(a, coords)
                    self.items.append((a, f, point, base, v))
        self.subset = set()
        for start in range(0, len(self.items), self.points):
            picks = rng.choice(self.points, size=self.rendered, replace=False)
            self.subset.update(start + int(k) for k in picks)
        self.reference = None

    def run_pass(self):
        lift = self.wc.functor.lift
        lat = []
        outs = []
        for a, f, point, _, _ in self.items:
            t0 = clock()
            try:
                q = lift(a, f)(point)
            except Exception as err:  # judged as a failed lift by check()
                q = err
            lat.append(clock() - t0)
            outs.append(q)
        self.outs = outs
        return sum(lat), lat, len(lat)

    def check(self, paused):
        flats = [None if isinstance(q, Exception) else q.flat() for q in self.outs]
        if self.reference is None:
            with paused():
                failed, errors = self._check_references(flats)
            self.reference = flats
            return len(flats), failed, errors
        # later passes must repeat the first, checked pass bit for bit
        bad = sum(
            1
            for got, ref in zip(flats, self.reference)
            if got is None or ref is None or not np.array_equal(got, ref)
        )
        errors = ["%d lifts differ from the first pass" % bad] if bad else []
        return len(flats), bad, errors

    def _check_references(self, flats):
        wc = self.wc
        renderings = {}
        failed = 0
        errors = []
        for k, ((a, f, point, base, v), flat) in enumerate(zip(self.items, flats)):
            if flat is None:
                failed += 1
                errors.append("lift %d over %s raised" % (k, a.name))
                continue
            got = flat.reshape(2, a.dim)
            try:
                ok = close_to(got[:, a.unit_index], wc.programs.evaluate(f, [float(x) for x in base]), 1e-9)
                jac = wc.programs.jacobian_oracle(f, base, richardson=True)
                cols = [int(np.argmax(g)) for g in a.generators]
                ok = ok and close_to(got[:, cols], jac @ v, 1e-6)
                if k in self.subset:
                    key = (id(a), id(f))
                    if key not in renderings:
                        renderings[key] = wc.functor.lift_program(a, f)
                    want = wc.programs.evaluate(renderings[key], [float(x) for x in point.flat()])
                    ok = ok and close_to(flat, want, 1e-9)
            except Exception:  # a reference that cannot be computed fails the lift
                ok = False
            if not ok:
                failed += 1
                if len(errors) < 5:
                    errors.append("lift %d over %s disagrees with its references" % (k, a.name))
        return failed, errors


class Render:
    """One-shot symbolic requests, each on trees built fresh from JSON."""

    name = "render"
    # kinds of one pass, in order; the counts fix the mix for every seed.
    # lift_program requests sit around the median latency and cli bracket
    # requests (the slowest kind) around the 90th percentile, so neither
    # percentile falls on the boundary between two kinds.
    MIX = ("bracket",) * 6 + ("lift_program",) * 8 + ("g_field_prolong",) * 3 + ("functional_bracket",) * 3

    def setup(self, wc, seed, tmpdir):
        self.wc = wc
        self.tmpdir = tmpdir
        self.rng = np.random.default_rng([seed, 3])
        self.t22 = wc.algebra.make_basic("truncated", 2, 2)
        self.triple = wc.jets.jet_triple(1, 2)
        wc.strongdiff.s_bundle()
        self.serial = 0

    # -- inputs, generated outside the timed calls ----------------------

    def _field2(self):
        wc, rng = self.wc, self.rng
        ex = wc.exprs
        poly = wc.programs.random_poly_program(rng, 2, 2, deg=2, scale=0.5)
        prims = ("sin", "cos", "exp")
        body = []
        for e in poly.exprs:
            name = prims[int(rng.integers(3))]
            body.append(e + ex.Const(float(rng.uniform(-0.5, 0.5))) * ex.prim(name, ex.Var(int(rng.integers(2)))))
        return wc.programs.field_to_json(wc.programs.VectorField(2, wc.programs.Program(2, body)))

    def _projectable(self):
        wc, rng = self.wc, self.rng
        ex = wc.exprs
        base = wc.programs.random_poly_program(rng, 1, 1, deg=3, scale=0.5).exprs[0]
        base = base + ex.Const(float(rng.uniform(-0.5, 0.5))) * ex.prim("sin", ex.Var(0))
        fiber = wc.programs.random_poly_program(rng, 2, 1, deg=2, scale=0.5).exprs[0]
        fiber = fiber + ex.Const(float(rng.uniform(-0.5, 0.5))) * ex.prim("exp", ex.Var(1))
        field = wc.programs.VectorField(2, wc.programs.Program(2, [base, fiber]))
        return wc.programs.field_to_json(field)

    def _functional(self, r):
        wc, rng = self.wc, self.rng
        ex = wc.exprs
        field = wc.functional.random_functional_field(rng, 1, 1, 1, r, deg=2, scale=0.4)
        xi = field.xi.exprs[0] + ex.Const(float(rng.uniform(-0.4, 0.4))) * ex.prim("sin", ex.Var(0))
        field = wc.functional.FunctionalVectorField(1, 1, 1, r, wc.programs.Program(1, [xi]), field.D)
        return wc.functional.functional_field_to_json(field)

    def _request(self, kind):
        rng = self.rng
        if kind == "bracket":
            docs = (self._field2(), self._field2())
            paths = []
            for doc in docs:
                self.serial += 1
                path = os.path.join(self.tmpdir, "field-%d.json" % self.serial)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                paths.append(path)
            at = ["%.3f" % v for v in rng.uniform(-0.9, 0.9, size=2)]
            return kind, (docs, paths, at)
        if kind == "lift_program":
            doc = self.wc.programs.program_to_json(taylor_program(self.wc, rng))
            probe = np.concatenate([
                [rng.uniform(-0.8, 0.8), *rng.uniform(-0.5, 0.5, size=self.t22.dim - 1)]
                for _ in range(2)
            ])
            return kind, (doc, probe)
        if kind == "g_field_prolong":
            return kind, (self._projectable(), rng.uniform(-0.8, 0.8, size=1 + self.triple.algebra.dim))
        return kind, (self._functional(1), self._functional(2), rng.uniform(-0.8, 0.8, size=8))

    # -- requests ----------------------------------------------------------

    def _serve(self, kind, data):
        wc = self.wc
        if kind == "bracket":
            _, paths, at = data
            argv = ["bracket", "--field", paths[0], "--field", paths[1], "--at=" + ",".join(at)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = wc.cli.main(argv)
            return rc, out.getvalue()
        if kind == "lift_program":
            f = wc.programs.program_from_json(data[0])
            return wc.functor.lift_program(self.t22, f)
        if kind == "g_field_prolong":
            field = wc.programs.field_from_json(data[0])
            return wc.jets.g_field_prolong(self.triple, field)
        x1 = wc.functional.functional_field_from_json(data[0])
        x2 = wc.functional.functional_field_from_json(data[1])
        return wc.functional.functional_bracket(x1, x2)

    def run_pass(self):
        requests = [self._request(kind) for kind in self.MIX]
        lat = []
        self.done = []
        for kind, data in requests:
            t0 = clock()
            try:
                out = self._serve(kind, data)
            except Exception as err:  # judged as a failed request by check()
                out = err
            lat.append(clock() - t0)
            self.done.append((kind, data, out))
        return sum(lat), lat, len(lat)

    def check(self, paused):
        failed = 0
        errors = []
        with paused():
            for kind, data, out in self.done:
                try:
                    if isinstance(out, Exception):
                        raise out
                    problem = getattr(self, "_check_" + kind)(data, out)
                except Exception as err:
                    problem = "raised %s: %s" % (type(err).__name__, err)
                if problem:
                    failed += 1
                    if len(errors) < 5:
                        errors.append("%s: %s" % (kind, problem))
                if kind == "bracket":
                    for path in data[1]:
                        os.remove(path)
        self.done = []
        return len(self.MIX), failed, errors

    def _check_bracket(self, data, out):
        wc = self.wc
        docs, _, at = data
        rc, text = out
        if rc != 0:
            return "exit %r" % rc
        x, y = (wc.programs.field_from_json(d) for d in docs)
        at = [float(v) for v in at]
        want = wc.strongdiff.bracket_value(x, y, at)
        lines = text.splitlines()
        comps = {}
        for line in lines:
            m = re.match(r"\[X,Y\]_(\d+) = (.*)$", line)
            if m:
                comps[int(m.group(1))] = eval_rendering(m.group(2), {"x0": at[0], "x1": at[1]})
        if sorted(comps) != [0, 1] or not close_to([comps[0], comps[1]], want, 1e-8):
            return "rendering at %r is %r, bracket_value gives %r" % (at, comps, want)
        m = re.match(r"at \((.*)\) -> \((.*)\)$", lines[-1]) if lines else None
        if m is None:
            return "no --at line"
        got = [float(v) for v in m.group(2).split(",")]
        # the --at line prints %g, six significant digits
        if not np.all(np.abs(np.array(got) - want) <= 1e-5 * np.abs(want) + 1e-9):
            return "--at line %r, bracket_value gives %r" % (got, want)
        return None

    def _check_lift_program(self, data, out):
        wc = self.wc
        doc, probe = data
        f = wc.programs.program_from_json(doc)
        if out.arity_in != 2 * self.t22.dim or out.arity_out != 2 * self.t22.dim:
            return "rendering has shape %d -> %d" % (out.arity_in, out.arity_out)
        got = wc.programs.evaluate(out, [float(v) for v in probe])
        point = wc.functor.point_from_flat(self.t22, 2, [float(v) for v in probe])
        want = wc.functor.lift(self.t22, f)(point).flat()
        return None if close_to(got, want, 1e-9) else "rendering disagrees with lift"

    def _check_g_field_prolong(self, data, out):
        wc = self.wc
        doc, probe = data
        field = wc.programs.field_from_json(doc)
        if out.dim != 1 + self.triple.algebra.dim:
            return "prolonged field has dim %d" % out.dim
        got = wc.programs.evaluate(out.components, [float(v) for v in probe])
        base = wc.programs.evaluate(field.components, [float(probe[0]), 0.0])[0]
        if not np.all(np.isfinite(got)) or not close_to(got[0], base, 1e-9):
            return "base velocity %r, field gives %r" % (got[0], base)
        return None

    def _check_functional_bracket(self, data, out):
        wc = self.wc
        x1 = wc.functional.functional_field_from_json(data[0])
        x2 = wc.functional.functional_field_from_json(data[1])
        probe = data[2]
        if out.r != x1.r + x2.r or out.D.arity_in != wc.functional.fiber_arity(1, 1, 1, out.r):
            return "bracket has order %d and arity %d" % (out.r, out.D.arity_in)
        v1 = wc.programs.VectorField(1, x1.xi)
        v2 = wc.programs.VectorField(1, x2.xi)
        want = wc.strongdiff.bracket_value(v1, v2, [float(probe[0])])
        got = wc.programs.evaluate(out.xi, [float(probe[0])])
        vert = wc.programs.evaluate(out.D, [float(v) for v in probe[: out.D.arity_in]])
        if not close_to(got, want, 1e-9) or not np.all(np.isfinite(vert)):
            return "base part %r, bracket_value gives %r" % (got, want)
        return None


_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


def eval_rendering(text, names):
    """Value of a rendered expression (the `format_expr` syntax) at a point.

    Walks the syntax tree itself and accepts only numbers, the given
    variable names, + - * / ^, unary minus and the five primitives.
    """

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _FUNCS[node.func.id](walk(node.args[0]))
        raise ValueError("unexpected syntax in rendering: %s" % ast.dump(node))

    return walk(ast.parse(text.replace("^", "**"), mode="eval"))


WORKLOADS = {w.name: w for w in (VerifyAll, TaylorLift, Render)}
