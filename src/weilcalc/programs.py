"""Closed smooth programs and vector fields.

A Program is a tuple of expression trees over variables x0..x{n-1}.  Each
Program compiles its trees once, when it is built, into a Tape: straight-line
code in which every node reachable from the roots has exactly one slot, so
shared subterms are computed once.  Running the tape is carrier-polymorphic:
feed `evaluate` floats and it computes numbers, feed it algebra elements and
it computes functor lifts, feed it expression trees and it performs
capture-free substitution (which is all `compose` is).

The runner also takes columns: float64 1-D arrays of one length B, entry p
belonging to point p, so one sweep of the tape evaluates B points (vector
forward mode).  numpy's + - * / and negation round as Python floats do, so
those ops run on whole columns; an integer power and a primitive apply
Python's float `**` and the float primitives of `scalars` to each entry,
because numpy's power and exp differ from them in the last ulp.  Zero
checks are made entry by entry, and an output that does not depend on the
inputs stays a plain number.  `run_columns` holds the one rule for errors
on a block of points: a column run goes under numpy's raising error state,
and a block with a non-finite input, or whose column run raises, is re-run
point by point on the scalar path, so the first failing point raises what
it raises on its own.  Single points keep the scalar path, the reference.

`run_points` is the one place that tells a point from a (B, n) block.
An entry point that takes either writes one body over run_points'
arguments: a list of floats and count None for a point, or the block's
n columns and count B.  `stack_columns` turns the body's outputs into a
row for a point or a (B, k) array for a block, so the body never asks
which it has.

A program may take `params` parameter inputs after its arity_in point
coordinates.  A parameter is a plain scalar or column of the carrier:
`evaluate_dual`, `jacobian_oracle`, the lifts of `functor` and the
brackets of `strongdiff` pass it through unchanged, with no slope, no
finite-difference step and no lift.  `poly_template` is the dense
polynomial of `random_poly_program` with its coefficients as parameters,
built by the same monomial walk, so a random field is that template plus
one row of coefficients.  `pair_blocks` draws the rows of many field
pairs and stacks them, each point followed by its pair's parameters, so
one compiled template runs all pairs as one column block of
pairs x samples rows; `trial_rows` draws the rows of a check's trials
in the order a draw per trial gives.  A constant fold that `exprs` makes
on a coefficient is the IEEE operation the parameter column computes at
run time, so a template row and the folded tree give equal numbers.

`sampled_deviations` is the one body of every check that compares two
sides at sampled points; the check writes only its draws and its gaps.
"""

from __future__ import annotations

import json
from array import array
from contextvars import ContextVar

import numpy as np

from . import exprs
from ._monomials import monomials
from .algebra import AlgebraElement, make_basic
from .errors import ArityMismatch, DivisionByNilpotent, DomainError, ShapeMismatch, WeilError
from .exprs import Const, Expr, IntPow, Var
from .scalars import apply_primitive

_ndarray = np.ndarray  # the type of a column carrier, bound once for cheap type checks

JACOBIAN_STEP = 1e-5


class Tape:
    """Expression trees compiled to straight-line code, children first.

    Slots 0..len(leaves)-1 hold the leaves: `leaves` gives each constant's
    value, and `inputs` pairs each variable slot with its variable index
    (one slot per index used).  Op n then writes slot len(leaves) + n from
    earlier slots: `ops` holds each computed node's document op, as the
    node classes of `exprs` declare it, `a` and `b` the operand slots,
    except that `b` of an integer power indexes `pool`, which holds the
    exponents, and `b` of a one-operand op repeats `a`.  `outputs` is the
    slot of each root.

    Every node reachable from the roots gets exactly one slot, so shared
    subterms are computed once.  Ops run in the order of `exprs.postorder`
    over the roots, the one children-first walk, right operand first;
    verification reports depend on that order through which error a
    sample raises first.  The operand arrays hold only slot and pool
    numbers, bounded by the node count; variable indices and exponents
    read from a program document stay Python integers.
    """

    __slots__ = ("leaves", "inputs", "ops", "a", "b", "pool", "outputs")

    def __init__(self, body, arity_in: int):
        if not all(isinstance(root, Expr) for root in body):
            raise ShapeMismatch("program body must consist of expressions")
        # keyed by the nodes; a computed node's slot is written as ~n for
        # op n and moved past the leaves once their count is known
        slot: dict = {}
        var_slot: dict[int, int] = {}
        leaves: list = []
        inputs: list = []
        ops: list = []
        a: list = []
        b: list = []
        pool: list = []
        for node in exprs.postorder(*body):
            cls = type(node)
            if cls is Const:
                slot[node] = len(leaves)
                leaves.append(node.c)
            elif cls is Var:
                i = node.i
                if i >= arity_in:
                    # the first root past the arity is the one the walk is in
                    used = next(h for h in map(exprs.max_var, body) if h >= arity_in)
                    raise ArityMismatch("expression uses x%d but program has arity %d" % (used, arity_in))
                s = var_slot.get(i)
                if s is None:
                    s = var_slot[i] = len(leaves)
                    inputs.append((s, i))
                    leaves.append(None)
                slot[node] = s
            else:
                kids = node.children
                slot[node] = ~len(ops)
                ops.append(node.op)
                a.append(slot[kids[0]])
                if cls is IntPow:
                    b.append(len(pool))
                    pool.append(node.k)
                else:
                    b.append(slot[kids[-1]])
        n = len(leaves)
        self.leaves = leaves
        self.inputs = inputs
        self.ops = tuple(ops)
        self.a = array("i", [s if s >= 0 else n + ~s for s in a])
        self.b = array("i", [s if s >= 0 else n + ~s for s in b])
        self.pool = pool
        self.outputs = [s if s >= 0 else n + ~s for s in (slot[root] for root in body)]


class Program:
    """A smooth map given by arity_in variables and arity_out expressions.

    Variables arity_in .. arity_in + params - 1 are its parameters: every
    run takes their values after the point's coordinates.
    """

    __slots__ = ("arity_in", "arity_out", "params", "exprs", "tape")

    def __init__(self, arity_in: int, body, params: int = 0):
        body = tuple(body)
        self.tape = Tape(body, arity_in + params)
        self.arity_in = int(arity_in)
        self.arity_out = len(body)
        self.params = int(params)
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
    pool = tape.pool
    v = list(tape.leaves)
    for s, i in tape.inputs:
        v[s] = args[i]
    put = v.append
    try:
        for op, a, b in zip(tape.ops, tape.a, tape.b):
            if op == "mul":
                put(v[a] * v[b])
            elif op == "add":
                put(v[a] + v[b])
            elif op == "intpow":
                x, k = v[a], pool[b]
                if type(x) is _ndarray:
                    put(_column_pow(x, k))
                else:
                    if k < 0 and isinstance(x, float) and x == 0.0:
                        raise DivisionByNilpotent("zero real part raised to a negative power")
                    put(x ** k)
            elif op == "sub":
                put(v[a] - v[b])
            elif op == "neg":
                put(-v[a])
            elif op == "div":
                y = v[b]
                if isinstance(y, float):
                    if y == 0.0:
                        raise DivisionByNilpotent("division by zero real part")
                elif type(y) is _ndarray and not y.all():
                    raise DivisionByNilpotent("division by zero real part")
                put(v[a] / y)
            else:
                put(apply_primitive(op, v[a]))
    except OverflowError as err:
        raise DomainError("float overflow: %s" % err.args[-1]) from err
    return [v[s] for s in tape.outputs]


def evaluate(prog: Program, args) -> list:
    """Outputs at the point's coordinates followed by the parameters."""
    if len(args) != prog.arity_in + prog.params:
        raise ArityMismatch(
            "program expects %d arguments, got %d" % (prog.arity_in + prog.params, len(args))
        )
    return _run(prog.tape, list(args))


def evaluate_dual(prog: Program, re_args, eps_args):
    """(values, slopes) of the tape run over dual numbers value + slope*e:
    lists of floats or, for column arguments, of columns and plain numbers.
    An output that is a plain number has slope 0.0.

    `re_args` holds the parameters after the coordinates, and they enter
    the run as they are; `eps_args` holds the coordinates' slopes only.
    """
    n = prog.arity_in
    if len(re_args) != n + prog.params or len(eps_args) != n:
        raise ArityMismatch("dual evaluation needs arity_in + params re and arity_in eps arguments")
    dual = make_basic("dual")
    points = [AlgebraElement(dual, [r, e]) for r, e in zip(re_args, eps_args)]
    out = _run(prog.tape, points + list(re_args[n:]))
    pairs = [v.coeffs if isinstance(v, AlgebraElement) else (v, 0.0) for v in out]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _column_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k entry by entry with Python's float power, which np.power
    does not match in the last ulp."""
    if k < 0 and not x.all():
        raise DivisionByNilpotent("zero real part raised to a negative power")
    return np.array([t ** k for t in x.tolist()])


def stack_columns(values, count) -> np.ndarray:
    """Outputs of a run as an array: a row for one point (count None), or
    (count, len(values)), one row per point, for a column run; an output
    that is a plain number fills its whole column."""
    out = np.empty((len(values),) if count is None else (count, len(values)))
    for i, v in enumerate(values):
        out[..., i] = v
    return out


# set while the outermost run_columns runs a block's columns
_IN_COLUMN_RUN = ContextVar("in_column_run", default=False)


def run_columns(block, columns, point) -> np.ndarray:
    """Apply `columns` to a (B, n) block of points at once, or `point` to
    each row in turn; the results stack along a first axis of length B.

    The column run goes under numpy's raising error state.  A block with a
    non-finite entry, or whose column run raises a WeilError or a numpy
    FloatingPointError, is run point by point instead, outside that state,
    so its first failing point raises the error it raises on its own.  A
    run_columns reached inside another's column run raises instead, so
    only the outermost block falls back, and each row runs once.
    """
    block = np.asarray(block, dtype=float)
    finite = np.isfinite(block).all()
    if _IN_COLUMN_RUN.get():
        if not finite:
            raise FloatingPointError("non-finite entry in a nested column block")
        return columns(block)
    if finite:
        outermost = _IN_COLUMN_RUN.set(True)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return columns(block)
        except (WeilError, FloatingPointError):
            pass
        finally:
            _IN_COLUMN_RUN.reset(outermost)
    return np.array([point(row) for row in block])


def run_points(x, body):
    """`body` at one point, or at each row of a (B, n) block of points.

    A point's coordinates go to `body` as a list of floats with count
    None.  A block goes through `run_columns`: its n columns with count B,
    and, on the per-row fallback, each row as a point.  `body` gives its
    result for one point, or for a block those results stacked along a
    first axis of length B.
    """
    if np.ndim(x) == 2:
        return run_columns(
            x,
            lambda block: body(list(block.T), len(block)),
            lambda row: body(row.tolist(), None),
        )
    return body([float(v) for v in x], None)


def evaluate_points(prog: Program, x) -> np.ndarray:
    """`prog`'s outputs at one point, or (B, arity_out) at the rows of a
    (B, n) block, from one `run_points` call."""
    return run_points(x, lambda args, count: stack_columns(evaluate(prog, args), count))


def compose(f: Program, g: Program) -> Program:
    """f after g, by substitution."""
    if f.arity_in != g.arity_out:
        raise ArityMismatch(
            "cannot compose: inner produces %d values, outer expects %d"
            % (g.arity_out, f.arity_in)
        )
    return Program(g.arity_in, _run(f.tape, g.exprs))


def jacobian_oracle(prog: Program, x, richardson: bool = False) -> np.ndarray:
    """Central-difference Jacobian of a program, the independent oracle for
    differentials.

    Steps by JACOBIAN_STEP, and with richardson=True combines that step and
    its half for fourth-order accuracy.  `x` is one point, or a (B, n)
    block of points that gives a (B, out, in) array from one `run_points`
    call; a point's parameters follow its coordinates and take no step.
    """

    def transposed(args, count):
        def fd(step):
            rows = []
            for j in range(prog.arity_in):
                xp = list(args)
                xm = list(args)
                xp[j] = args[j] + step
                xm[j] = args[j] - step
                fp = evaluate(prog, xp)
                fm = evaluate(prog, xm)
                rows.append(stack_columns([(a - b) / (2.0 * step) for a, b in zip(fp, fm)], count))
            return np.stack(rows, axis=-2)

        d1 = fd(JACOBIAN_STEP)
        if not richardson:
            return d1
        d2 = fd(JACOBIAN_STEP / 2.0)
        return (4.0 * d2 - d1) / 3.0

    # each point's matrix is the transpose of a C-ordered array, for a block
    # as for one point: a matrix product rounds by layout
    return np.swapaxes(run_points(x, transposed), -1, -2)


# -- small builders ------------------------------------------------------


def _poly_body(arity_in: int, arity_out: int, deg: int, coefficients) -> list:
    """Dense polynomial components, each a constant plus one term per
    monomial of degree 1..deg; `coefficients` gives their leaves in that
    order, component by component."""
    leaves = iter(coefficients)
    body = []
    for _ in range(arity_out):
        acc = next(leaves)
        for alpha in monomials(arity_in, deg, mindeg=1):
            term = next(leaves)
            for j, k in enumerate(alpha):
                if k:
                    term = exprs.mul(term, exprs.intpow(Var(j), k))
            acc = exprs.add(acc, term)
        body.append(acc)
    return body


def _poly_size(arity_in: int, arity_out: int, deg: int) -> int:
    """Number of coefficients of a dense polynomial program."""
    return arity_out * len(monomials(arity_in, deg))


def random_poly_program(rng, arity_in: int, arity_out: int, deg: int, scale: float = 0.5) -> Program:
    """Dense polynomial program with coefficients uniform in [-scale, scale]."""
    row = rng.uniform(-scale, scale, size=_poly_size(arity_in, arity_out, deg))
    return Program(arity_in, _poly_body(arity_in, arity_out, deg, map(Const, row.tolist())))


def random_poly_field(rng, dim: int, deg: int) -> VectorField:
    """Random polynomial field, coefficients uniform in [-0.5, 0.5]."""
    return VectorField(dim, random_poly_program(rng, dim, dim, deg=deg))


def poly_template(arity_in: int, arity_out: int, deg: int) -> Program:
    """The dense polynomial of random_poly_program with its coefficients as
    parameters, in the order random_poly_program draws them."""
    size = _poly_size(arity_in, arity_out, deg)
    body = _poly_body(arity_in, arity_out, deg, map(Var, range(arity_in, arity_in + size)))
    return Program(arity_in, body, params=size)


def trial_rows(rng, samples: int, *ranges) -> np.ndarray:
    """(samples, k) uniform draws, one row per trial: a trial draws `size`
    numbers in [low, high) for each (low, high, size) of `ranges` in turn,
    the numbers that one rng.uniform call per range and trial draws."""
    lows, highs, sizes = zip(*ranges)
    return rng.uniform(np.repeat(lows, sizes), np.repeat(highs, sizes), size=(samples, sum(sizes)))


# Most rows in one block of `pair_blocks`: a column run holds each tape
# slot as a column of its rows, so this bounds a block's memory.
MAX_BLOCK_ROWS = 2048


def pair_blocks(rng, x_field: VectorField, y_field: VectorField, width: int, pairs: int, samples: int):
    """(first pair, block) for `pairs` draws of a field pair, consecutive
    pairs stacked into blocks of at most max(samples, MAX_BLOCK_ROWS) rows.

    Each pair draws X's parameter row and then Y's, uniform in
    [-0.5, 0.5] as random_poly_field draws its coefficients, and then
    `samples` points of [-1, 1]^width.  Its rows are those points, each
    followed by X's parameters and Y's: the input layout of the pair's
    bracket.  Every pair is drawn, in order, before the first block, so
    grouping moves no draw, and fields without parameters draw only their
    points.
    """
    n = x_field.components.params + y_field.components.params
    draws = trial_rows(rng, pairs, (-0.5, 0.5, n), (-1.0, 1.0, samples * width))
    per_block = max(1, MAX_BLOCK_ROWS // samples)
    for first in range(0, pairs, per_block):
        block = draws[first : first + per_block]
        yield first, np.hstack([block[:, n:].reshape(-1, width), np.repeat(block[:, :n], samples, axis=0)])


def sampled_deviations(items, gaps, samples: int):
    """(tag, deviation) pairs for `tally`, from (first pair, block) items:
    `pair_blocks` blocks, or (0, block) for one block of `samples` trials.

    `gaps` gives the largest gap between a check's two sides at a point,
    or one per row at a block; each block runs through `run_columns`.  Row
    k is tagged {"pair": first + k // samples, "trial": k % samples}.
    """
    for first, block in items:
        for row, dev in enumerate(run_columns(block, gaps, gaps)):
            yield {"pair": first + row // samples, "trial": row % samples}, float(dev)


# -- serialization -------------------------------------------------------

_PROGRAM_KEYS = {"in", "out", "exprs"}
FIELD_KEYS = frozenset({"dim", "components"})


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
    if type(data.get("in")) is not int or not isinstance(data.get("exprs"), list):
        raise ShapeMismatch("program document needs integer 'in' and list 'exprs'")
    body = [exprs.node_from_json(e) for e in data["exprs"]]
    prog = Program(data["in"], body)
    if "out" in data and (type(data["out"]) is not int or data["out"] != prog.arity_out):
        raise ShapeMismatch(
            "declared out %r disagrees with %d expressions" % (data["out"], prog.arity_out)
        )
    return prog


def program_dumps(prog: Program) -> str:
    return json.dumps(program_to_json(prog), sort_keys=True, separators=(",", ":"))


def field_to_json(field: VectorField) -> dict:
    return {"dim": field.dim, "components": program_to_json(field.components)}


def field_from_json(data) -> VectorField:
    if not isinstance(data, dict) or set(data) - FIELD_KEYS:
        raise ShapeMismatch("field document needs exactly 'dim' and 'components'")
    if type(data.get("dim")) is not int:
        raise ShapeMismatch("field 'dim' must be an integer")
    return VectorField(data["dim"], program_from_json(data.get("components")))
