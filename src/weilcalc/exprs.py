"""Expression trees for smooth programs.

Nodes are immutable and shared freely; identity (not structural equality)
is what a compiled program tape shares slots on, so building trees through
the smart constructors below keeps common subterms computed once.

The smart constructors fold constants and drop additive/multiplicative
units so that machine-generated trees (functor lifts, dual-number
differentials) stay small.  Deserialized user programs are built raw.
"""

from __future__ import annotations

import math
import sys

from .errors import ArityMismatch

PRIMITIVES = ("sin", "cos", "exp", "log", "sqrt")

_MAX_TERMS = 512


class Expr:
    __slots__ = ()

    children: tuple = ()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add(self, other)

    def __radd__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add(other, self)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sub(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sub(other, self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(other, self)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return intpow(self, k)


class Var(Expr):
    __slots__ = ("i",)

    def __init__(self, i: int):
        if i < 0:
            raise ArityMismatch("variable index must be >= 0, got %d" % i)
        self.i = i

    def __repr__(self):
        return "x%d" % self.i


class Const(Expr):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = float(c)

    def __repr__(self):
        return repr(self.c)


class Neg(Expr):
    __slots__ = ("x", "children")

    def __init__(self, x: Expr):
        self.x = x
        self.children = (x,)


class Add(Expr):
    __slots__ = ("a", "b", "children")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.children = (a, b)


class Sub(Expr):
    __slots__ = ("a", "b", "children")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.children = (a, b)


class Mul(Expr):
    __slots__ = ("a", "b", "children")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.children = (a, b)


class Div(Expr):
    __slots__ = ("a", "b", "children")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.children = (a, b)


class IntPow(Expr):
    __slots__ = ("x", "k", "children")

    def __init__(self, x: Expr, k: int):
        self.x = x
        self.k = int(k)
        self.children = (x,)


class Prim(Expr):
    """One of the analytic primitives sin, cos, exp, log, sqrt."""

    __slots__ = ("name", "x", "children")

    def __init__(self, name: str, x: Expr):
        if name not in PRIMITIVES:
            raise ArityMismatch("unknown primitive %r" % name)
        self.name = name
        self.x = x
        self.children = (x,)


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    return NotImplemented


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.c == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.c + b.c)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.c - b.c)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.c * b.c)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.c != 0.0:
        if _is_const(a):
            return Const(a.c / b.c)
        if b.c == 1.0:
            return a
    if _is_const(a, 0.0):
        return Const(0.0)
    return Div(a, b)


def neg(x: Expr) -> Expr:
    if _is_const(x):
        return Const(-x.c)
    if isinstance(x, Neg):
        return x.x
    return Neg(x)


def intpow(x: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return x
    if _is_const(x):
        if x.c == 0.0 and k < 0:
            from .errors import DivisionByNilpotent

            raise DivisionByNilpotent("0 raised to negative power")
        try:
            return Const(x.c ** k)
        except OverflowError:  # a power past the float range stays unfolded
            pass
    return IntPow(x, k)


def prim(name: str, x: Expr) -> Expr:
    return Prim(name, x)


def postorder(root: Expr):
    """Yield every node reachable from root exactly once, children first."""
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or not node.children:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            for c in node.children:
                if id(c) not in seen:
                    stack.append((c, False))


def max_var(root: Expr) -> int:
    """Largest variable index used, -1 if none."""
    hi = -1
    for node in postorder(root):
        if isinstance(node, Var) and node.i > hi:
            hi = node.i
    return hi


_OPS = {"add", "sub", "mul", "div", "neg", "intpow", "var", "const"} | set(PRIMITIVES)


def _integral(c: float) -> bool:
    """An integral constant prints as an int; never true for inf or NaN."""
    return c.is_integer() and abs(c) < 2**53


def node_to_json(root: Expr) -> dict:
    """Encode as nested {"op": ...} dicts (shared subtrees are duplicated)."""
    memo: dict[int, dict] = {}
    for node in postorder(root):
        if isinstance(node, Var):
            d = {"op": "var", "i": node.i}
        elif isinstance(node, Const):
            c = node.c
            d = {"op": "const", "c": int(c) if _integral(c) else c}
        elif isinstance(node, Neg):
            d = {"op": "neg", "args": [memo[id(node.x)]]}
        elif isinstance(node, Add):
            d = {"op": "add", "args": [memo[id(node.a)], memo[id(node.b)]]}
        elif isinstance(node, Sub):
            d = {"op": "sub", "args": [memo[id(node.a)], memo[id(node.b)]]}
        elif isinstance(node, Mul):
            d = {"op": "mul", "args": [memo[id(node.a)], memo[id(node.b)]]}
        elif isinstance(node, Div):
            d = {"op": "div", "args": [memo[id(node.a)], memo[id(node.b)]]}
        elif isinstance(node, IntPow):
            d = {"op": "intpow", "k": node.k, "args": [memo[id(node.x)]]}
        else:
            d = {"op": node.name, "args": [memo[id(node.x)]]}
        memo[id(node)] = d
    return memo[id(root)]


def node_from_json(data) -> Expr:
    """Decode a node dict; raises ArityMismatch on malformed input."""
    if not isinstance(data, dict) or "op" not in data:
        raise ArityMismatch("expression node must be an object with an 'op' key")
    op = data["op"]
    if op not in _OPS:
        raise ArityMismatch("unknown op %r" % (op,))
    if op == "var":
        if not isinstance(data.get("i"), int):
            raise ArityMismatch("var node needs an integer 'i'")
        return Var(data["i"])
    if op == "const":
        c = data.get("c")
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise ArityMismatch("const node needs a numeric 'c'")
        if not abs(c) <= sys.float_info.max:  # NaN, inf, or an int past the float range
            raise ArityMismatch("const node needs a finite 'c'")
        return Const(c)
    args = data.get("args")
    need = 2 if op in ("add", "sub", "mul", "div") else 1
    if not isinstance(args, list) or len(args) != need:
        raise ArityMismatch("op %r needs %d args" % (op, need))
    kids = [node_from_json(a) for a in args]
    if op == "add":
        return Add(*kids)
    if op == "sub":
        return Sub(*kids)
    if op == "mul":
        return Mul(*kids)
    if op == "div":
        return Div(*kids)
    if op == "neg":
        return Neg(kids[0])
    if op == "intpow":
        if not isinstance(data.get("k"), int):
            raise ArityMismatch("intpow node needs an integer 'k'")
        return IntPow(kids[0], data["k"])
    return Prim(op, kids[0])


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "intpow": 4, "atom": 5}


def format_expr(root: Expr, names=None) -> str:
    """Render infix text, for display only."""
    out: dict[int, tuple[str, int]] = {}
    for node in postorder(root):
        if isinstance(node, Var):
            s = names[node.i] if names else "x%d" % node.i
            out[id(node)] = (s, _PREC["atom"])
        elif isinstance(node, Const):
            c = node.c
            s = repr(int(c)) if _integral(c) else repr(c)
            out[id(node)] = (s, _PREC["atom"] if c >= 0 else _PREC["neg"])
        elif isinstance(node, Neg):
            xs, xp = out[id(node.x)]
            if xp < _PREC["neg"]:
                xs = "(" + xs + ")"
            out[id(node)] = ("-" + xs, _PREC["neg"])
        elif isinstance(node, (Add, Sub, Mul, Div)):
            op, sym = {
                Add: ("add", " + "),
                Sub: ("sub", " - "),
                Mul: ("mul", "*"),
                Div: ("div", "/"),
            }[type(node)]
            p = _PREC[op]
            a_s, a_p = out[id(node.a)]
            b_s, b_p = out[id(node.b)]
            if a_p < p:
                a_s = "(" + a_s + ")"
            # right operand needs parens at equal precedence for - and /
            if b_p < p or (b_p == p and op in ("sub", "div")):
                b_s = "(" + b_s + ")"
            out[id(node)] = (a_s + sym + b_s, p)
        elif isinstance(node, IntPow):
            xs, xp = out[id(node.x)]
            if xp < _PREC["intpow"]:
                xs = "(" + xs + ")"
            out[id(node)] = ("%s^%d" % (xs, node.k), _PREC["intpow"])
        else:
            xs, _ = out[id(node.x)]
            out[id(node)] = ("%s(%s)" % (node.name, xs), _PREC["atom"])
    return out[id(root)][0]


def simplify(root: Expr) -> Expr:
    """Collect into a polynomial normal form where possible.

    Terms over a commuting atom set (variables, primitive calls, quotients
    with non-constant denominators, negative powers) are expanded and
    merged bottom-up; arguments of opaque atoms are simplified recursively.
    Subtrees whose expansion would exceed _MAX_TERMS monomials, or would
    carry a coefficient past the float range, are rebuilt structurally
    instead of expanded, so the result is always equivalent.

    The one children-first sweep makes a structural rebuild only where it
    is read: one level over the children's best forms for a node whose
    expansion failed, and the argument of each atom.  A child that
    expanded is turned back into a tree from its terms only there and at
    the root, so a fully expandable tree is rebuilt once, at the root.
    """
    terms: dict = {}
    best: dict = {}
    atoms: dict = {}
    skey_memo: dict = {}

    def monomial_mul(ma, mb):
        powers = dict(ma)
        for k, p in mb:
            powers[k] = powers.get(k, 0) + p
        return tuple(sorted((k, p) for k, p in powers.items() if p != 0))

    def finite(t):
        # an overflowed coefficient makes the expansion unusable, like a long one
        return t if all(map(math.isfinite, t.values())) else None

    def t_scale(t, s):
        return finite({m: c * s for m, c in t.items()})

    def t_add(a, b, sign=1.0):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0.0) + sign * c
        return finite({m: c for m, c in out.items() if c != 0.0})

    def t_mul(a, b):
        if len(a) * len(b) > _MAX_TERMS:
            return None
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = monomial_mul(ma, mb)
                out[m] = out.get(m, 0.0) + ca * cb
        out = {m: c for m, c in out.items() if c != 0.0}
        return finite(out) if len(out) <= _MAX_TERMS else None

    def atom_terms(key, expr):
        atoms[key] = expr
        return {((key, 1),): 1.0}

    def expr_of(t):
        def order(item):
            m, _ = item
            return (sum(p for _, p in m), repr(m))

        out = None
        for m, c in sorted(t.items(), key=order):
            factors = None
            for k, p in m:
                f = intpow(atoms[k], p)
                factors = f if factors is None else mul(factors, f)
            if factors is None:
                term = Const(c)
            elif c == 1.0:
                term = factors
            elif c == -1.0:
                term = neg(factors)
            else:
                term = mul(Const(c), factors)
            if out is None:
                out = term
            elif isinstance(term, Neg):
                out = sub(out, term.x)
            elif isinstance(term, Const) and term.c < 0:
                out = sub(out, Const(-term.c))
            elif isinstance(term, Mul) and _is_const(term.a) and term.a.c < 0:
                out = sub(out, mul(Const(-term.a.c), term.b))
            else:
                out = add(out, term)
        return out if out is not None else Const(0.0)

    def best_of(node):
        t = terms[id(node)]
        return expr_of(t) if t is not None else best[id(node)]

    def skey(e):
        hit = skey_memo.get(id(e))
        if hit is not None:
            return hit[1]
        if isinstance(e, Var):
            r = ("v", e.i)
        elif isinstance(e, Const):
            r = ("c", e.c)
        elif isinstance(e, Neg):
            r = ("neg", skey(e.x))
        elif isinstance(e, (Add, Sub, Mul, Div)):
            tag = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}[type(e)]
            r = (tag, skey(e.a), skey(e.b))
        elif isinstance(e, IntPow):
            r = ("pow", skey(e.x), e.k)
        else:
            r = ("prim", e.name, skey(e.x))
        # holding e keeps its id from being reused by a later temporary
        skey_memo[id(e)] = (e, r)
        return r

    for node in postorder(root):
        i = id(node)
        if isinstance(node, Var):
            terms[i] = atom_terms(("v", node.i), node)
        elif isinstance(node, Const):
            c = float(node.c)
            terms[i] = finite({(): c}) if c != 0.0 else {}
            if terms[i] is None:
                best[i] = node
        elif isinstance(node, Neg):
            t = terms[id(node.x)]
            terms[i] = t_scale(t, -1.0) if t is not None else None
            if terms[i] is None:
                best[i] = neg(best_of(node.x))
        elif isinstance(node, (Add, Sub)):
            ta, tb = terms[id(node.a)], terms[id(node.b)]
            sign = 1.0 if isinstance(node, Add) else -1.0
            terms[i] = t_add(ta, tb, sign) if ta is not None and tb is not None else None
            if terms[i] is None:
                op = add if isinstance(node, Add) else sub
                best[i] = op(best_of(node.a), best_of(node.b))
        elif isinstance(node, Mul):
            ta, tb = terms[id(node.a)], terms[id(node.b)]
            terms[i] = t_mul(ta, tb) if ta is not None and tb is not None else None
            if terms[i] is None:
                best[i] = mul(best_of(node.a), best_of(node.b))
        elif isinstance(node, IntPow):
            t = terms[id(node.x)]
            if node.k >= 0 and t is not None:
                acc = {(): 1.0}
                for _ in range(node.k):
                    acc = t_mul(acc, t)
                    if acc is None:
                        break
                terms[i] = acc
                if acc is None:
                    best[i] = intpow(best_of(node.x), node.k)
            else:
                base = best_of(node.x)
                terms[i] = atom_terms(("pow", skey(base), node.k), intpow(base, node.k))
        elif isinstance(node, Div):
            ta, tb = terms[id(node.a)], terms[id(node.b)]
            if tb is not None and set(tb) <= {()}:
                c = tb.get((), 0.0)
                terms[i] = t_scale(ta, 1.0 / c) if c != 0.0 and ta is not None else None
                if terms[i] is None:
                    best[i] = div(best_of(node.a), best_of(node.b))
            else:
                num, den = best_of(node.a), best_of(node.b)
                terms[i] = atom_terms(("div", skey(num), skey(den)), div(num, den))
        else:
            arg = best_of(node.x)
            terms[i] = atom_terms(("prim", node.name, skey(arg)), prim(node.name, arg))

    return best_of(root)
