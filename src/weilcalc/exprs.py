"""Expression trees for smooth programs.

Nodes are immutable and shared freely.  A compiled program tape gives
one slot to each distinct value, not to each node object, so equal
subterms are computed once whether they are shared or built twice;
sharing still keeps a tree's walks short.

The smart constructors fold constants and drop additive/multiplicative
units so that machine-generated trees (functor lifts, dual-number
differentials) stay small.  Deserialized user programs are built raw.

The node classes are the one table of node kinds.  Each declares, as
class attributes, its document `op` (a primitive's op is its name) and
its printed precedence `prec`; Add, Sub, Mul and Div also declare their
printed symbol `sym`.  Documents, printed text, `simplify` and the tape
compiler of `programs` read them there.  `postorder` is the one
children-first walk: writing a document, printing, `simplify` and the
tape compiler all sweep a tree with it.
"""

from __future__ import annotations

import math
import sys

from .errors import ArityMismatch, DivisionByNilpotent, TextTooLong

PRIMITIVES = ("sin", "cos", "exp", "log", "sqrt")

_MAX_TERMS = 512
# Longest text format_expr renders.  A shared subtree is printed once per
# use, so the text of a small tree can grow exponentially with its depth.
MAX_TEXT = 1_000_000


class Expr:
    __slots__ = ()

    children: tuple = ()

    def __add__(self, other):
        return add(self, other) if isinstance(other, Expr) else _apply(add, self, other)

    def __radd__(self, other):
        return _apply(add, other, self)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Expr) else _apply(sub, self, other)

    def __rsub__(self, other):
        return _apply(sub, other, self)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Expr) else _apply(mul, self, other)

    def __rmul__(self, other):
        return _apply(mul, other, self)

    def __truediv__(self, other):
        return div(self, other) if isinstance(other, Expr) else _apply(div, self, other)

    def __rtruediv__(self, other):
        return _apply(div, other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return intpow(self, k)


class Var(Expr):
    __slots__ = ("i",)
    op, prec = "var", 5

    def __init__(self, i: int):
        if i < 0:
            raise ArityMismatch("variable index must be >= 0, got %d" % i)
        self.i = i

    def __repr__(self):
        return "x%d" % self.i


class Const(Expr):
    __slots__ = ("c",)
    op, prec = "const", 5  # a negative one prints at Neg's precedence

    def __init__(self, c):
        self.c = float(c)

    def __repr__(self):
        return repr(self.c)


class Neg(Expr):
    __slots__ = ("x", "children")
    op, prec = "neg", 3

    def __init__(self, x: Expr):
        self.x = x
        self.children = (x,)


class _Binary(Expr):
    """A binary node, printed `a sym b`."""

    __slots__ = ("a", "b", "children")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.children = (a, b)


class Add(_Binary):
    __slots__ = ()
    op, sym, prec = "add", " + ", 1


class Sub(_Binary):
    __slots__ = ()
    op, sym, prec = "sub", " - ", 1


class Mul(_Binary):
    __slots__ = ()
    op, sym, prec = "mul", "*", 2


class Div(_Binary):
    __slots__ = ()
    op, sym, prec = "div", "/", 2


class IntPow(Expr):
    __slots__ = ("x", "k", "children")
    op, prec = "intpow", 4

    def __init__(self, x: Expr, k: int):
        self.x = x
        self.k = int(k)
        self.children = (x,)


class Prim(Expr):
    """One of the analytic primitives sin, cos, exp, log, sqrt; its name
    is its document op."""

    __slots__ = ("name", "op", "x", "children")
    prec = 5

    def __init__(self, name: str, x: Expr):
        if name not in PRIMITIVES:
            raise ArityMismatch("unknown primitive %r" % name)
        self.name = self.op = name
        self.x = x
        self.children = (x,)


# the node class each document op names
_KINDS = {cls.op: cls for cls in (Var, Const, Neg, Add, Sub, Mul, Div, IntPow)}
_KINDS.update(dict.fromkeys(PRIMITIVES, Prim))


def _apply(build, a, b):
    """build(a, b) with a number operand made a Const; NotImplemented for
    an operand that is neither a number nor an Expr."""
    a, b = _coerce(a), _coerce(b)
    if a is NotImplemented or b is NotImplemented:
        return NotImplemented
    return build(a, b)


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    return NotImplemented


# The smart constructors fold constants.  Each tests an operand's type
# once, and a fold with one constant operand depends only on that constant.


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.c + b.c)
        if a.c == 0.0:
            return b
    elif type(b) is Const and b.c == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.c - b.c)
        if b.c == 0.0:
            return a
    elif type(a) is Const and a.c == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.c * b.c)
        c, other = a.c, b
    elif type(b) is Const:
        c, other = b.c, a
    else:
        return Mul(a, b)
    if c == 0.0:
        return Const(0.0)
    if c == 1.0:
        return other
    if c == -1.0:
        return neg(other)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const and b.c != 0.0:
        if type(a) is Const:
            return Const(a.c / b.c)
        if b.c == 1.0:
            return a
    if type(a) is Const and a.c == 0.0:
        return Const(0.0)
    return Div(a, b)


def neg(x: Expr) -> Expr:
    if type(x) is Const:
        return Const(-x.c)
    if type(x) is Neg:
        return x.x
    return Neg(x)


def intpow(x: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return x
    if type(x) is Const:
        if x.c == 0.0 and k < 0:
            raise DivisionByNilpotent("0 raised to negative power")
        try:
            return Const(x.c ** k)
        except OverflowError:  # a power past the float range stays unfolded
            pass
    return IntPow(x, k)


def prim(name: str, x: Expr) -> Expr:
    return Prim(name, x)


def postorder(*roots) -> list:
    """Every node reachable from the roots exactly once, children first:
    the roots in turn, each node's right operand before its left.  Nodes
    compare by identity, so a set of them is a set of ids."""
    seen = set()
    out = []
    # a node followed by None has its children pushed above it
    stack = list(reversed(roots))
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:
            node = pop()
        elif node in seen:
            continue
        elif node.children:
            push(node)
            push(None)
            for c in node.children:
                if c not in seen:
                    push(c)
            continue
        seen.add(node)
        out.append(node)
    return out


def max_var(root: Expr) -> int:
    """Largest variable index used, -1 if none."""
    return max((node.i for node in postorder(root) if type(node) is Var), default=-1)


def _integral(c: float) -> bool:
    """An integral constant prints as an int; never true for inf or NaN."""
    return c.is_integer() and abs(c) < 2**53


def node_to_json(root: Expr) -> dict:
    """Encode as nested {"op": ...} dicts (shared subtrees are duplicated)."""
    memo: dict = {}
    for node in postorder(root):
        cls = type(node)
        d = {"op": node.op}
        if cls is Var:
            d["i"] = node.i
        elif cls is Const:
            c = node.c
            # an integral constant is written as an int, except -0.0, whose
            # sign an int would drop
            d["c"] = int(c) if _integral(c) and (c or math.copysign(1.0, c) > 0) else c
        elif cls is IntPow:
            d["k"] = node.k
        if node.children:
            d["args"] = [memo[c] for c in node.children]
        memo[node] = d
    return memo[root]


def node_from_json(data) -> Expr:
    """Decode a node dict; raises ArityMismatch on malformed input."""
    if not isinstance(data, dict) or "op" not in data:
        raise ArityMismatch("expression node must be an object with an 'op' key")
    op = data["op"]
    cls = _KINDS.get(op)
    if cls is None:
        raise ArityMismatch("unknown op %r" % (op,))
    if cls is Var:
        if type(data.get("i")) is not int:
            raise ArityMismatch("var node needs an integer 'i'")
        return Var(data["i"])
    if cls is Const:
        c = data.get("c")
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise ArityMismatch("const node needs a numeric 'c'")
        if not abs(c) <= sys.float_info.max:  # NaN, inf, or an int past the float range
            raise ArityMismatch("const node needs a finite 'c'")
        return Const(c)
    args = data.get("args")
    need = 2 if issubclass(cls, _Binary) else 1
    if not isinstance(args, list) or len(args) != need:
        raise ArityMismatch("op %r needs %d args" % (op, need))
    kids = [node_from_json(a) for a in args]
    if cls is IntPow:
        if type(data.get("k")) is not int:
            raise ArityMismatch("intpow node needs an integer 'k'")
        return IntPow(kids[0], data["k"])
    if cls is Prim:
        return Prim(op, kids[0])
    return cls(*kids)


def _joined(*parts) -> str:
    if sum(map(len, parts)) > MAX_TEXT:
        raise TextTooLong("rendered text would pass %d characters" % MAX_TEXT)
    return "".join(parts)


def _operand(text_prec, prec: int) -> str:
    """An operand's text, in parentheses if it binds looser than prec."""
    text, p = text_prec
    return "(" + text + ")" if p < prec else text


def format_expr(root: Expr, names=None) -> str:
    """Render infix text, for display only; raises TextTooLong rather than
    build text longer than MAX_TEXT."""
    out: dict = {}  # node -> (text, precedence)
    for node in postorder(root):
        cls = type(node)
        p = cls.prec
        if cls is Var:
            s = names[node.i] if names else "x%d" % node.i
        elif cls is Const:
            c = node.c
            s = repr(int(c)) if _integral(c) else repr(c)
            if not c >= 0:  # negative or NaN
                p = Neg.prec
        elif cls is Neg:
            s = _joined("-", _operand(out[node.x], p))
        elif cls is IntPow:
            s = _joined(_operand(out[node.x], p), "^%d" % node.k)
        elif cls is Prim:
            s = _joined(node.name, "(", out[node.x][0], ")")
        else:
            # the right operand of - and / needs parens at equal precedence too
            right = p + 1 if cls is Sub or cls is Div else p
            s = _joined(_operand(out[node.a], p), node.sym, _operand(out[node.b], right))
        out[node] = (s, p)
    return out[root][0]


def simplify(root: Expr) -> Expr:
    """Collect into a Laurent-polynomial normal form where possible.

    A term is a coefficient times atoms (variables, primitive calls, sums
    under a negative power) with signed integer exponents, merged
    bottom-up; arguments of atoms are simplified recursively.  A monomial
    to any power multiplies its exponents, a sum to a power k >= 0 expands
    by repeated products, a sum to a negative power becomes one atom keyed
    by its simplified form, and a / b is a * b^-1.  A zero base under a
    negative power raises DivisionByNilpotent, as evaluation does.
    Subtrees whose expansion would exceed _MAX_TERMS monomials, or would
    carry a coefficient past the float range, are rebuilt structurally
    instead of expanded, so the result is always equivalent; so is a
    one-term base to a power past _MAX_TERMS, which would take that many
    products.

    The one children-first sweep makes a structural rebuild only where it
    is read: one level over the children's best forms for a node whose
    expansion failed, and the argument or base of each atom.  A child that
    expanded is turned back into a tree from its terms only there and at
    the root, so a fully expandable tree is rebuilt once, at the root.
    """
    terms: dict = {}
    best: dict = {}
    atoms: dict = {}
    skey_memo: dict = {}

    def monomial_mul(ma, mb):
        # a monomial is sorted with no zero power, so a unit factor leaves it as it is
        if not ma:
            return mb
        if not mb:
            return ma
        powers = dict(ma)
        for k, p in mb:
            powers[k] = powers.get(k, 0) + p
        return tuple(sorted((k, p) for k, p in powers.items() if p != 0))

    def finite(t):
        # an overflowed coefficient makes the expansion unusable, like a long one
        return t if all(map(math.isfinite, t.values())) else None

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

    def atom_terms(expr, p=1):
        key = skey(expr)
        atoms[key] = expr
        return {((key, p),): 1.0}

    def power(x, k):
        """Terms of x^k, or None where x^k stays structural."""
        t, n = terms[id(x)], k
        if t is not None and k < 0 and len(t) == 1:
            (m, c), = t.items()
            t, n = finite({tuple((a, -p) for a, p in m): 1.0 / c}), -k
        # a power of one term never outgrows _MAX_TERMS, so n bounds its loop
        if t is not None and n >= 0 and (len(t) != 1 or n <= _MAX_TERMS):
            acc = {(): 1.0}
            for _ in range(n):
                acc = t_mul(acc, t)
                if not acc:  # None, or zero for good
                    break
            return acc
        if k >= 0:
            return None
        base = best_of(x)
        if isinstance(base, Const) and base.c == 0.0:
            raise DivisionByNilpotent("0 raised to negative power")
        return atom_terms(base, k)

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
            elif isinstance(term, Mul) and isinstance(term.a, Const) and term.a.c < 0:
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
        elif isinstance(e, IntPow):
            r = ("pow", skey(e.x), e.k)
        elif isinstance(e, Prim):
            r = ("prim", e.name, skey(e.x))
        else:  # Neg and the binary nodes
            r = (e.op, *map(skey, e.children))
        # holding e keeps its id from being reused by a later temporary
        skey_memo[id(e)] = (e, r)
        return r

    for node in postorder(root):
        i = id(node)
        if isinstance(node, Var):
            terms[i] = atom_terms(node)
        elif isinstance(node, Const):
            terms[i] = finite({(): node.c}) if node.c != 0.0 else {}
            if terms[i] is None:
                best[i] = node
        elif isinstance(node, Neg):
            t = terms[id(node.x)]
            terms[i] = {m: -c for m, c in t.items()} if t is not None else None
            if terms[i] is None:
                best[i] = neg(best_of(node.x))
        elif isinstance(node, (Add, Sub)):
            ta, tb = terms[id(node.a)], terms[id(node.b)]
            sign = 1.0 if isinstance(node, Add) else -1.0
            terms[i] = t_add(ta, tb, sign) if ta is not None and tb is not None else None
            if terms[i] is None:
                op = add if isinstance(node, Add) else sub
                best[i] = op(best_of(node.a), best_of(node.b))
        elif isinstance(node, (Mul, Div)):
            ta = terms[id(node.a)]
            tb = terms[id(node.b)] if isinstance(node, Mul) else power(node.b, -1)
            terms[i] = t_mul(ta, tb) if ta is not None and tb is not None else None
            if terms[i] is None:
                op = mul if isinstance(node, Mul) else div
                best[i] = op(best_of(node.a), best_of(node.b))
        elif isinstance(node, IntPow):
            terms[i] = power(node.x, node.k)
            if terms[i] is None:
                best[i] = intpow(best_of(node.x), node.k)
        else:
            terms[i] = atom_terms(prim(node.name, best_of(node.x)))

    return best_of(root)
