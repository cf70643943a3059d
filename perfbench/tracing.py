"""Span tracing of weilcalc from outside the package.

The traced run replaces selected functions and methods of the imported
weilcalc modules with wrappers that open a span around each call.  A
module that imports a function by name holds its own binding, so every
binding of the original object in every weilcalc module is replaced, and
each one is put back by `Patches.restore`.

Spans are aggregated in memory as they close (calls, total time and self
time per name); self time is a span's duration minus the time its child
spans cover.  Recursive calls of a wrapped function fold into the
outermost span of that name.  A single-thread stack is enough: every
workload is one client on one thread.
"""

from __future__ import annotations

import hashlib
import sys
import time
from contextlib import contextmanager

MARK = "__perfbench_wrapped__"


class Tracer:
    """Aggregating span recorder with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = True
        self.stack = []  # [name, start, covered by children]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}

    def begin(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def end(self):
        name, start, covered = self.stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        if self.stack:
            self.stack[-1][2] += dur

    def exclude(self, dur):
        """Hide `dur` seconds of tracer bookkeeping from the open span."""
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self):
        """Return (stats, counts) recorded so far and start afresh."""
        if self.stack:
            raise RuntimeError("spans still open: %r" % [s[0] for s in self.stack])
        out = (self.stats, self.counts)
        self.stats, self.counts = {}, {}
        return out

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was


def _span(tracer, name, fn):
    def wrapped(*args, **kwargs):
        stack = tracer.stack
        if not tracer.on or (stack and stack[-1][0] == name):
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapped


def _counter(tracer, name, fn):
    def wrapped(*args, **kwargs):
        if tracer.on:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapped


def _distinct_nodes(postorder, body):
    seen = set()
    for root in body:
        for node in postorder(root):
            seen.add(id(node))
    return len(seen)


def _carrier(args, algebra_element, expr):
    if not args:
        return "float"
    x = args[0]
    if isinstance(x, algebra_element):
        return "algebra"
    if isinstance(x, expr):
        return "expr"
    return "float"


def _evaluate(tracer, fn, wc):
    """evaluate, split by carrier, counting distinct nodes per body."""
    postorder = wc.exprs.postorder
    element, expr = wc.algebra.AlgebraElement, wc.exprs.Expr
    clock = tracer.clock

    def wrapped(prog, args):
        if not tracer.on:
            return fn(prog, args)
        t0 = clock()
        kind = _carrier(args, element, expr)
        n = _distinct_nodes(postorder, prog.exprs)
        tracer.count("programs.nodes_evaluated", n)
        tracer.count("programs.evaluate.%s.nodes" % kind, n)
        tracer.exclude(clock() - t0)
        tracer.begin("programs.evaluate." + kind)
        try:
            return fn(prog, args)
        finally:
            tracer.end()

    return wrapped


def _mul(tracer, fn, wc):
    """AlgebraElement products; element-by-element ones add their nonzeros."""
    element = wc.algebra.AlgebraElement

    def wrapped(self, other):
        if not tracer.on:
            return fn(self, other)
        if isinstance(other, element):
            tracer.count("algebra.mul.nnz", len(self.algebra.nonzeros()))
        tracer.begin("algebra.mul")
        try:
            return fn(self, other)
        finally:
            tracer.end()

    return wrapped


def _construct(tracer, fn, wc):
    """WeilAlgebra.__init__, remembering which structures were built."""
    seen = set()

    def wrapped(self, *args, **kwargs):
        if not tracer.on:
            return fn(self, *args, **kwargs)
        tracer.begin("algebra.construct")
        try:
            fn(self, *args, **kwargs)
        finally:
            tracer.end()
        t0 = tracer.clock()
        key = hashlib.sha1(self.structure.tobytes()).hexdigest()
        key = (self.dim, self.unit_index, key)
        if key not in seen:
            seen.add(key)
            tracer.count("algebra.construct.distinct")
        tracer.exclude(tracer.clock() - t0)

    return wrapped


def _lift(tracer, fn, wc):
    """functor.lift: the span wraps the callable it returns."""

    def wrapped(algebra, f):
        return _span(tracer, "functor.lift", fn(algebra, f))

    return wrapped


# (module, attribute path, span name); None as span name marks a special
# wrapper from SPECIAL.  Only bindings inside weilcalc are replaced.
TARGETS = (
    ("programs", "evaluate", None),
    ("programs", "evaluate_dual", "programs.evaluate_dual"),
    ("programs", "jacobian_oracle", "programs.jacobian_oracle"),
    ("exprs", "simplify", "exprs.simplify"),
    ("exprs", "format_expr", "exprs.format_expr"),
    ("exprs", "node_from_json", "exprs.node_from_json"),
    ("scalars", "apply_primitive", None),
    ("algebra", "AlgebraElement.__mul__", None),
    ("algebra", "AlgebraElement.analytic", "algebra.analytic"),
    ("algebra", "WeilAlgebra.__init__", None),
    ("algebra", "make_hom", "algebra.make_hom"),
    ("functor", "lift", None),
    ("functor", "lift_program", "functor.lift_program"),
    ("functor", "transform", "functor.transform"),
    ("strongdiff", "bracket_value", "strongdiff.bracket_value"),
    ("strongdiff", "bracket", "strongdiff.bracket"),
    ("strongdiff", "k_map", "strongdiff.k_map"),
    ("strongdiff", "make_S", "strongdiff.make_S"),
    ("prolong", "field_prolong", "prolong.field_prolong"),
    ("prolong", "ProlongedField.value_at", "prolong.ProlongedField.value_at"),
    ("jets", "jet_compose", "jets.jet_compose"),
    ("jets", "jet_invert", "jets.jet_invert"),
    ("jets", "flow_frame_oracle", "jets.flow_frame_oracle"),
    ("jets", "g_field_prolong", "jets.g_field_prolong"),
    ("jets", "make_triple", "jets.make_triple"),
    ("functional", "functional_bracket", "functional.functional_bracket"),
    ("functional", "functional_field_prolong", "functional.functional_field_prolong"),
    ("functional", "g_functional", "functional.g_functional"),
)

SPECIAL = {
    "evaluate": _evaluate,
    "apply_primitive": lambda tracer, fn, wc: _counter(tracer, "scalars.apply_primitive", fn),
    "AlgebraElement.__mul__": _mul,
    "WeilAlgebra.__init__": _construct,
    "lift": _lift,
}

EXPR_NODES = ("Var", "Const", "Neg", "Add", "Sub", "Mul", "Div", "IntPow", "Prim")


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self):
        self.saved = []  # (owner, attribute, original)
        self.missing = []

    def _set(self, owner, attr, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, tracer, wc):
        """Wrap every TARGETS entry wherever weilcalc binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "weilcalc" or n.startswith("weilcalc.")]
        for mod_name, path, span in TARGETS:
            owner = getattr(wc, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            maker = SPECIAL.get(path)
            if maker is not None:
                wrapper = maker(tracer, original, wc)
            else:
                wrapper = _span(tracer, span, original)
            setattr(wrapper, MARK, True)
            if cls_path:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, name, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        for cls_name in EXPR_NODES:
            cls = getattr(wc.exprs, cls_name)
            wrapper = _counter(tracer, "exprs.nodes_built", cls.__init__)
            setattr(wrapper, MARK, True)
            self._set(cls, "__init__", wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []

    @staticmethod
    def leftovers():
        """Names in weilcalc modules and their classes still bound to a wrapper."""
        found = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "weilcalc" or mod_name.startswith("weilcalc.")):
                continue
            for name, value in vars(mod).items():
                if getattr(value, MARK, False):
                    found.append("%s.%s" % (mod_name, name))
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        if getattr(member, MARK, False):
                            found.append("%s.%s.%s" % (mod_name, name, attr))
        return found
