"""Closed smooth programs and vector fields.

A Program is a tuple of expression trees over variables x0..x{n-1}.  Each
Program compiles its trees once, when it is built, into a Tape: straight-line
code in which every node reachable from the roots has exactly one slot, so
shared subterms are computed once.  Running the tape is carrier-polymorphic:
feed `evaluate` floats and it computes numbers, feed it algebra elements and
it computes functor lifts, feed it expression trees and it performs
capture-free substitution (which is all `compose` is).  `evaluate_dual` runs
the same tape over float (value, derivative) pairs, so pointwise bracket
evaluation pays no object-allocation costs.  `eval_exprs` compiles loose
trees into a temporary tape and runs it once.

Both runners also take columns: float64 1-D arrays of one length B, entry p
belonging to point p, so one sweep of the tape evaluates B points (vector
forward mode).  numpy's + - * / and negation round as Python floats do, so
those ops run on whole columns; an integer power and a primitive apply
Python's float `**` and `scalars._numeric` to each entry, because numpy's
power and exp differ from them in the last ulp.  Zero checks are made
entry by entry, and an output that does not depend on the inputs stays a
plain number.  `run_columns` holds the one rule for errors on a block of
points: a column run goes under numpy's raising error state, and a block
with a non-finite input, or whose column run raises, is re-run point by
point on the scalar path, so the first failing point raises what it
raises on its own.  Single points keep the scalar path, the reference.
"""

from __future__ import annotations

import json
from array import array

import numpy as np

from . import exprs
from ._monomials import monomials
from .errors import ArityMismatch, DivisionByNilpotent, DomainError, ShapeMismatch, WeilError
from .exprs import Add, Const, Div, Expr, IntPow, Mul, Neg, Prim, Sub, Var
from .scalars import _numeric, apply_primitive

_ndarray = np.ndarray  # the type of a column carrier, bound once for cheap type checks

# Tape opcodes of the computed nodes.  Leaves (constants and variables) are
# not ops: their values are laid out in the first slots before a run.
_ADD, _SUB, _MUL, _DIV, _NEG, _POW, _PRIM = range(7)
_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}

JACOBIAN_STEP = 1e-5


class Tape:
    """Expression trees compiled to straight-line code, children first.

    Slots 0..len(leaves)-1 hold the leaves: `leaves` gives each constant's
    value, and `inputs` pairs each variable slot with its variable index
    (one slot per index used).  Op n then writes slot len(leaves) + n from
    earlier slots: `ops` holds the opcodes, `a` and `b` the operand slots,
    except that `b` of an integer power or a primitive indexes `pool`, which
    holds exponents and primitive names.  `outputs` is the slot of each root.

    Every node reachable from the roots gets exactly one slot, so shared
    subterms are computed once.  Ops run in the order of a children-first
    walk of the roots in turn, right operand first; verification reports
    depend on that order through which error a sample raises first.  The
    operand arrays hold only slot and pool numbers, bounded by the node
    count; variable indices and exponents read from a program document
    stay Python integers.
    """

    __slots__ = ("leaves", "inputs", "ops", "a", "b", "pool", "outputs")

    def __init__(self, body, arity_in: int):
        # operands of computed nodes are written as ~n for op n and moved
        # past the leaves once their count is known
        slot: dict[int, int] = {}
        var_slot: dict[int, int] = {}
        leaves: list = []
        inputs: list = []
        ops = bytearray()
        a: list = []
        b: list = []
        pool: list = []
        outputs: list = []
        for root in body:
            if not isinstance(root, Expr):
                raise ShapeMismatch("program body must consist of expressions")
            stack = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if id(node) in slot:
                    continue
                kids = node.children
                if kids and not expanded:
                    stack.append((node, True))
                    for c in kids:
                        if id(c) not in slot:
                            stack.append((c, False))
                    continue
                cls = type(node)
                if cls is Const:
                    slot[id(node)] = len(leaves)
                    leaves.append(node.c)
                    continue
                if cls is Var:
                    i = node.i
                    if i >= arity_in:
                        raise ArityMismatch(
                            "expression uses x%d but program has arity %d"
                            % (exprs.max_var(root), arity_in)
                        )
                    s = var_slot.get(i)
                    if s is None:
                        s = var_slot[i] = len(leaves)
                        inputs.append((s, i))
                        leaves.append(None)
                    slot[id(node)] = s
                    continue
                if cls in _BINARY:
                    op, x, y = _BINARY[cls], slot[id(node.a)], slot[id(node.b)]
                elif cls is Neg:
                    op, x, y = _NEG, slot[id(node.x)], 0
                elif cls is IntPow:
                    op, x, y = _POW, slot[id(node.x)], len(pool)
                    pool.append(node.k)
                elif cls is Prim:
                    op, x, y = _PRIM, slot[id(node.x)], len(pool)
                    pool.append(node.name)
                else:
                    raise ShapeMismatch("unknown node %r" % node)
                slot[id(node)] = ~len(ops)
                ops.append(op)
                a.append(x)
                b.append(y)
            outputs.append(slot[id(root)])
        n = len(leaves)
        self.leaves = leaves
        self.inputs = inputs
        self.ops = bytes(ops)
        self.a = array("i", [s if s >= 0 else n + ~s for s in a])
        self.b = array("i", [s if s >= 0 else n + ~s for s in b])
        self.pool = pool
        self.outputs = [s if s >= 0 else n + ~s for s in outputs]


class Program:
    """A smooth map given by arity_in variables and arity_out expressions."""

    __slots__ = ("arity_in", "arity_out", "exprs", "tape")

    def __init__(self, arity_in: int, body):
        body = tuple(body)
        self.tape = Tape(body, arity_in)
        self.arity_in = int(arity_in)
        self.arity_out = len(body)
        self.exprs = body

    def __repr__(self):
        return "Program(%d -> %d: %s)" % (
            self.arity_in,
            self.arity_out,
            "; ".join(exprs.format_expr(e) for e in self.exprs),
        )


class VectorField:
    """A field on R^dim: a program with equal input and output arity."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components: Program):
        if components.arity_in != dim or components.arity_out != dim:
            raise ShapeMismatch(
                "field on R^%d needs a %d -> %d program, got %d -> %d"
                % (dim, dim, dim, components.arity_in, components.arity_out)
            )
        self.dim = dim
        self.components = components

    def __repr__(self):
        return "VectorField(dim=%d)" % self.dim


def _run(tape: Tape, args) -> list:
    """Run a tape over any carrier; args[i] is the value of x_i."""
    ADD, SUB, MUL, DIV, NEG, POW = _ADD, _SUB, _MUL, _DIV, _NEG, _POW
    pool = tape.pool
    v = list(tape.leaves)
    for s, i in tape.inputs:
        v[s] = args[i]
    put = v.append
    try:
        for op, a, b in zip(tape.ops, tape.a, tape.b):
            if op == MUL:
                put(v[a] * v[b])
            elif op == ADD:
                put(v[a] + v[b])
            elif op == POW:
                x, k = v[a], pool[b]
                if type(x) is _ndarray:
                    put(_column_pow(x, k))
                else:
                    if k < 0 and isinstance(x, float) and x == 0.0:
                        raise DivisionByNilpotent("zero real part raised to a negative power")
                    put(x ** k)
            elif op == SUB:
                put(v[a] - v[b])
            elif op == NEG:
                put(-v[a])
            elif op == DIV:
                y = v[b]
                if isinstance(y, float):
                    if y == 0.0:
                        raise DivisionByNilpotent("division by zero real part")
                elif type(y) is _ndarray and not y.all():
                    raise DivisionByNilpotent("division by zero real part")
                put(v[a] / y)
            else:
                put(apply_primitive(pool[b], v[a]))
    except OverflowError as err:
        raise DomainError("float overflow: %s" % err.args[-1]) from err
    return [v[s] for s in tape.outputs]


def eval_exprs(body, args) -> list:
    """Evaluate loose expression trees over any carrier, sharing work across trees."""
    return _run(Tape(body, len(args)), args)


def evaluate(prog: Program, args) -> list:
    if len(args) != prog.arity_in:
        raise ArityMismatch(
            "program expects %d arguments, got %d" % (prog.arity_in, len(args))
        )
    return _run(prog.tape, list(args))


def evaluate_dual(prog: Program, re_args, eps_args):
    """First-order directional derivative over float dual numbers.

    Runs the program's tape over (value, derivative) pairs held in two
    parallel slot lists and returns (values, derivatives) as lists, of
    floats or, for column arguments, of columns and plain numbers.
    """
    if len(re_args) != prog.arity_in or len(eps_args) != prog.arity_in:
        raise ArityMismatch("dual evaluation needs arity_in re and eps arguments")
    ADD, SUB, MUL, DIV, NEG, POW = _ADD, _SUB, _MUL, _DIV, _NEG, _POW
    tape = prog.tape
    pool = tape.pool
    r = list(tape.leaves)
    e = [0.0] * len(r)
    for s, i in tape.inputs:
        rv, ev = re_args[i], eps_args[i]
        r[s] = rv if type(rv) is _ndarray else float(rv)
        e[s] = ev if type(ev) is _ndarray else float(ev)
    try:
        for op, a, b in zip(tape.ops, tape.a, tape.b):
            if op == MUL:
                ra, rb = r[a], r[b]
                r.append(ra * rb)
                e.append(ra * e[b] + e[a] * rb)
            elif op == ADD:
                r.append(r[a] + r[b])
                e.append(e[a] + e[b])
            elif op == POW:
                rx, k = r[a], pool[b]
                if k == 0:
                    r.append(1.0)
                    e.append(0.0)
                elif type(rx) is _ndarray:
                    r.append(_column_pow(rx, k))
                    e.append(float(k) * _column_pow(rx, k - 1) * e[a])
                else:
                    if rx == 0.0 and k < 0:
                        raise DivisionByNilpotent("zero real part raised to negative power")
                    r.append(rx ** k)
                    e.append(float(k) * rx ** (k - 1) * e[a])
            elif op == SUB:
                r.append(r[a] - r[b])
                e.append(e[a] - e[b])
            elif op == NEG:
                r.append(-r[a])
                e.append(-e[a])
            elif op == DIV:
                ra, rb = r[a], r[b]
                zero = not rb.all() if type(rb) is _ndarray else rb == 0.0
                if zero:
                    raise DivisionByNilpotent("division by zero real part")
                # (e_a - q e_b) / b rather than (e_a b - a e_b) / b^2: a tiny
                # nonzero b squares to zero and the quotient rule would divide by it
                q = ra / rb
                r.append(q)
                e.append((e[a] - q * e[b]) / rb)
            else:
                rx, name = r[a], pool[b]
                if type(rx) is _ndarray:
                    r.append(apply_primitive(name, rx))
                    e.append(apply_primitive(name, rx, 1) * e[a])
                else:
                    r.append(_numeric(name, 0, rx))
                    e.append(_numeric(name, 1, rx) * e[a])
    except OverflowError as err:
        raise DomainError("float overflow: %s" % err.args[-1]) from err
    return [r[s] for s in tape.outputs], [e[s] for s in tape.outputs]


def _column_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k entry by entry with Python's float power, which np.power
    does not match in the last ulp."""
    if k < 0 and not x.all():
        raise DivisionByNilpotent("zero real part raised to a negative power")
    return np.array([t ** k for t in x.tolist()])


def stack_columns(values, count: int) -> np.ndarray:
    """Outputs of a column run as a (count, len(values)) array, one row per
    point; an output that is a plain number fills its whole column."""
    out = np.empty((count, len(values)))
    for i, v in enumerate(values):
        out[:, i] = v
    return out


def run_columns(block, columns, point) -> np.ndarray:
    """Apply `columns` to a (B, n) block of points at once, or `point` to
    each row in turn; the results stack along a first axis of length B.

    The column run goes under numpy's raising error state.  A block with a
    non-finite entry, or whose column run raises a WeilError or a numpy
    FloatingPointError, is run point by point instead, outside that state,
    so its first failing point raises the error it raises on its own.
    """
    block = np.asarray(block, dtype=float)
    if np.isfinite(block).all():
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return columns(block)
        except (WeilError, FloatingPointError):
            pass
    return np.array([point(row) for row in block])


def compose(f: Program, g: Program) -> Program:
    """f after g, by substitution."""
    if f.arity_in != g.arity_out:
        raise ArityMismatch(
            "cannot compose: inner produces %d values, outer expects %d"
            % (g.arity_out, f.arity_in)
        )
    return Program(g.arity_in, _run(f.tape, g.exprs))


def jacobian_oracle(field, x, richardson: bool = False) -> np.ndarray:
    """Central-difference Jacobian, the independent oracle for differentials.

    Accepts a VectorField or a Program; steps by JACOBIAN_STEP, and with
    richardson=True combines that step and its half for fourth-order
    accuracy.  `x` is one point, or a (B, n) block of points that runs as
    columns through `run_columns` and gives a (B, out, in) array.
    """
    prog = field.components if isinstance(field, VectorField) else field
    if np.ndim(x) == 2:
        # each point's matrix is laid out as a single point's is, the
        # transpose of a C-ordered array: a matrix product rounds by layout
        rows = run_columns(
            x,
            lambda block: _jacobian_rows(prog, block, richardson),
            lambda pt: jacobian_oracle(prog, pt, richardson).T,
        )
        return rows.transpose(0, 2, 1)
    return _jacobian_rows(prog, [float(v) for v in x], richardson).T


def _jacobian_rows(prog: Program, x, richardson: bool) -> np.ndarray:
    """The transposed Jacobian at a point given as a list of floats, or
    at each row of a (B, n) block at once."""
    count = len(x) if type(x) is _ndarray else None
    args = list(x.T) if count is not None else x

    def fd(step):
        rows = []
        for j in range(prog.arity_in):
            xp = list(args)
            xm = list(args)
            xp[j] = args[j] + step
            xm[j] = args[j] - step
            fp = evaluate(prog, xp)
            fm = evaluate(prog, xm)
            rows.append([(a - b) / (2.0 * step) for a, b in zip(fp, fm)])
        if count is None:
            return np.array(rows)
        return np.stack([stack_columns(r, count) for r in rows], axis=1)

    d1 = fd(JACOBIAN_STEP)
    if not richardson:
        return d1
    d2 = fd(JACOBIAN_STEP / 2.0)
    return (4.0 * d2 - d1) / 3.0


# -- small builders ------------------------------------------------------


def identity_program(n: int) -> Program:
    return Program(n, [Var(i) for i in range(n)])


def constant_program(values, arity_in: int = 0) -> Program:
    return Program(arity_in, [Const(v) for v in values])


def linear_program(matrix) -> Program:
    """The linear map given by a matrix, as a program."""
    m = np.asarray(matrix, dtype=float)
    rows = []
    for r in range(m.shape[0]):
        acc = exprs.Const(0.0)
        for c in range(m.shape[1]):
            acc = exprs.add(acc, exprs.mul(exprs.Const(m[r, c]), Var(c)))
        rows.append(acc)
    return Program(m.shape[1], rows)


def stack_programs(progs) -> Program:
    """Concatenate outputs of programs that share one input space."""
    arity = progs[0].arity_in
    body = []
    for p in progs:
        if p.arity_in != arity:
            raise ArityMismatch("stacked programs must share their input arity")
        body.extend(p.exprs)
    return Program(arity, body)


def random_poly_program(rng, arity_in: int, arity_out: int, deg: int = 2, scale: float = 0.5) -> Program:
    """Dense polynomial program with coefficients uniform in [-scale, scale]."""
    body = []
    for _ in range(arity_out):
        acc = Const(float(rng.uniform(-scale, scale)))
        for alpha in monomials(arity_in, deg, mindeg=1):
            term = Const(float(rng.uniform(-scale, scale)))
            for j, k in enumerate(alpha):
                if k:
                    term = exprs.mul(term, exprs.intpow(Var(j), k))
            acc = exprs.add(acc, term)
        body.append(acc)
    return Program(arity_in, body)


def random_poly_field(rng, dim: int, deg: int = 2, scale: float = 0.5) -> VectorField:
    return VectorField(dim, random_poly_program(rng, dim, dim, deg=deg, scale=scale))


# -- serialization -------------------------------------------------------

_PROGRAM_KEYS = {"in", "out", "exprs"}


def program_to_json(prog: Program) -> dict:
    return {
        "in": prog.arity_in,
        "out": prog.arity_out,
        "exprs": [exprs.node_to_json(e) for e in prog.exprs],
    }


def program_from_json(data) -> Program:
    if not isinstance(data, dict):
        raise ShapeMismatch("program document must be an object")
    unknown = set(data) - _PROGRAM_KEYS
    if unknown:
        raise ShapeMismatch("unknown program fields %s" % sorted(unknown))
    if not isinstance(data.get("in"), int) or not isinstance(data.get("exprs"), list):
        raise ShapeMismatch("program document needs integer 'in' and list 'exprs'")
    body = [exprs.node_from_json(e) for e in data["exprs"]]
    prog = Program(data["in"], body)
    if "out" in data and data["out"] != prog.arity_out:
        raise ShapeMismatch(
            "declared out %r disagrees with %d expressions" % (data["out"], prog.arity_out)
        )
    return prog


def program_dumps(prog: Program) -> str:
    return json.dumps(program_to_json(prog), sort_keys=True, separators=(",", ":"))


def field_to_json(field: VectorField) -> dict:
    return {"dim": field.dim, "components": program_to_json(field.components)}


def field_from_json(data) -> VectorField:
    if not isinstance(data, dict) or set(data) - {"dim", "components"}:
        raise ShapeMismatch("field document needs exactly 'dim' and 'components'")
    if not isinstance(data.get("dim"), int):
        raise ShapeMismatch("field 'dim' must be an integer")
    return VectorField(data["dim"], program_from_json(data.get("components")))
