"""Expression trees and straight-line programs."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weilcalc.algebra import AlgebraElement, make_basic, tensor
from weilcalc.exprs import (
    PRIMITIVES,
    Add,
    Const,
    Div,
    IntPow,
    Mul,
    Neg,
    Prim,
    Sub,
    Var,
    add,
    div,
    format_expr,
    intpow,
    mul,
    neg,
    postorder,
    prim,
    simplify,
    sub,
)
from weilcalc.programs import (
    Program,
    VectorField,
    compose,
    constant_program,
    eval_exprs,
    evaluate,
    evaluate_dual,
    field_from_json,
    field_to_json,
    identity_program,
    jacobian_oracle,
    linear_program,
    program_dumps,
    program_from_json,
    program_to_json,
    random_poly_program,
    run_columns,
    stack_columns,
    stack_programs,
)
from weilcalc.prolong import ProlongedField
from weilcalc.errors import ArityMismatch, DivisionByNilpotent, DomainError, ShapeMismatch, WeilError
from weilcalc.scalars import _numeric, _symbolic, apply_primitive


# -- smart constructors -------------------------------------------------------


def test_constant_folding():
    out = add(Const(2), Const(3))
    assert isinstance(out, Const) and out.c == 5
    out = mul(Const(0.0), Var(1))
    assert isinstance(out, Const) and out.c == 0.0
    out = intpow(Const(2.0), 3)
    assert isinstance(out, Const) and out.c == 8.0
    assert isinstance(mul(Var(0), Var(1)), Mul)
    # a power past the float range stays unfolded, in simplify too
    for k in (40, -40):
        base = 1e300 if k > 0 else 1e-300
        assert isinstance(intpow(Const(base), k), IntPow)
        assert format_expr(simplify(IntPow(Const(base), k))) == "%r^%d" % (base, k)


def test_operator_sugar_wraps_numbers():
    e = Var(0) + 2
    assert isinstance(e, Add)
    assert evaluate(Program(1, [e]), [5.0]) == [7.0]
    e = 3.0 * Var(0) - 1
    assert evaluate(Program(1, [e]), [2.0]) == [5.0]


def test_operator_sugar_refuses_foreign_operands():
    with pytest.raises(TypeError):
        Var(0) + object()


# -- formatting ---------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,text",
    [
        (sub(Var(0), sub(Var(1), Var(2))), "x0 - (x1 - x2)"),
        (mul(Var(0), add(Var(1), Var(2))), "x0*(x1 + x2)"),
        (neg(add(Var(0), Var(1))), "-(x0 + x1)"),
        (intpow(Var(0), 2), "x0^2"),
        (prim("sin", Var(0)), "sin(x0)"),
        (div(Var(0), mul(Var(1), Var(2))), "x0/(x1*x2)"),
        (Const(math.inf), "inf"),
        (Const(math.nan), "nan"),
    ],
)
def test_format_expr(expr, text):
    assert format_expr(expr) == text


def test_format_expr_with_names():
    e = add(mul(Var(0), Var(1)), Const(1.0))
    assert format_expr(e, names=["u", "v"]) == "u*v + 1"


# -- simplification -----------------------------------------------------------


def test_simplify_cancels():
    e = add(mul(Var(0), Var(0)), neg(intpow(Var(0), 2)))
    assert format_expr(simplify(e)) == "0"


def test_simplify_collects_terms():
    # x*x^2 + x^2*x -> 2x^3, then subtract x^3
    e = sub(add(mul(Var(0), intpow(Var(0), 2)), mul(intpow(Var(0), 2), Var(0))), intpow(Var(0), 3))
    assert format_expr(simplify(e)) == "x0^3"


def test_simplify_keeps_opaque_atoms():
    e = add(prim("sin", Var(0)), mul(Const(2.0), prim("sin", Var(0))))
    assert format_expr(simplify(e)) == "3*sin(x0)"


def test_simplify_keeps_quotients_and_negative_powers_equivalent():
    x, y = Var(0), Var(1)
    den = Add(Const(2.0), IntPow(x, 2))
    cases = [
        Div(Sub(Prim("sin", y), Mul(x, y)), den),
        Add(Div(x, den), Mul(Const(3.0), Div(x, den))),
        Mul(IntPow(Add(x, Const(2.0)), -2), Neg(Div(y, Add(Const(1.5), Prim("cos", x))))),
        Sub(Div(Div(x, den), Add(Const(3.0), y)), IntPow(Sub(Const(4.0), y), -3)),
        Mul(Div(Const(1.0), Mul(den, Add(y, Const(3.0)))), IntPow(den, 2)),
        Div(Prim("exp", x), Neg(Add(x, y))),
        Div(Add(x, Div(y, den)), Const(4.0)),
    ]
    pts = [[0.3, -1.2], [1.0, 0.5], [-0.7, 2.0]]
    for e in cases:
        s = simplify(e)
        for p in pts:
            a, b = eval_exprs([e], p)[0], eval_exprs([s], p)[0]
            assert abs(a - b) <= 1e-12 * abs(a)


def test_simplify_keeps_atoms_apart_after_temporaries_die():
    # each tree folds a constant raised to a negative power, so simplify
    # drops a temporary it has already keyed; a later temporary that got
    # its id back once inherited its key, and two different atoms merged
    x0, x1, x2 = Var(0), Var(1), Var(2)
    trees = [
        Add(
            Div(Const(-0.5), Add(Const(-2.0), Prim("log", x2))),
            Mul(Const(-3.0), Div(
                IntPow(Sub(Const(1.0), Const(0.5)), -1),
                Add(Prim("log", x2), IntPow(Const(-0.5), -1)),
            )),
        ),
        Add(
            Prim("sin", Const(0.25)),
            Mul(
                Neg(Mul(Const(-2.0), Mul(Prim("exp", Const(0.25)), Prim("sin", Sub(Const(0.25), Const(-3.0)))))),
                IntPow(Add(
                    Sub(IntPow(Mul(Const(0.25), Const(1.0)), -3), Div(x0, Sub(Const(-0.75), x1))),
                    Sub(Prim("log", Div(Const(1.5), x2)), IntPow(Prim("sqrt", Const(0.25)), -3)),
                ), 0),
            ),
        ),
    ]
    for e in trees:
        s = simplify(e)
        for p in ([0.3, 0.5, 0.9], [0.9, 0.45, 1.3]):
            a, b = eval_exprs([e], p)[0], eval_exprs([s], p)[0]
            assert math.isclose(a, b, rel_tol=1e-9), (format_expr(e), format_expr(s), p)


def test_simplify_builds_at_most_twice_its_output_on_an_expandable_tree(monkeypatch):
    # a polynomial tree expands at every node, so no structural rebuild is
    # needed anywhere; only the output itself should be made
    x0, x1 = Var(0), Var(1)
    e = Const(1.0)
    for i in range(6):
        e = Add(Mul(e, Sub(x0, Const(i + 0.5))), Mul(Const(2.0), x1))
    built = [0]
    for cls in (Var, Const, Neg, Add, Sub, Mul, Div, IntPow, Prim):
        def counted(self, *args, _init=cls.__init__):
            built[0] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    s = simplify(e)
    assert built[0] <= 2 * sum(1 for _ in postorder(s))


_leaf = st.one_of(
    st.integers(0, 2).map(Var),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(Const),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    inner = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(inner, inner).map(lambda t: add(*t)),
        st.tuples(inner, inner).map(lambda t: sub(*t)),
        st.tuples(inner, inner).map(lambda t: mul(*t)),
        inner.map(neg),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: intpow(*t)),
    )


@settings(max_examples=80, deadline=None)
@given(_exprs(4))
def test_simplify_preserves_evaluation(e):
    pts = [[0.3, -1.2, 0.8], [1.0, 0.5, -0.4], [-0.7, 2.0, 0.1]]
    s = simplify(e)
    for p in pts:
        a = eval_exprs([e], p)[0]
        b = eval_exprs([s], p)[0]
        a, b = float(a), float(b)
        assert abs(a - b) <= 1e-7 * (1.0 + abs(a) + abs(b))


# -- evaluation ---------------------------------------------------------------


def test_eval_exprs_memoizes_shared_nodes():
    class Tap:
        adds = 0

        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            Tap.adds += 1
            return Tap(self.v + other.v)

        def __mul__(self, other):
            return Tap(self.v * other.v)

    shared = add(Var(0), Var(1))
    body = [mul(shared, shared)]
    out = eval_exprs(body, [Tap(2.0), Tap(3.0)])
    assert out[0].v == 25.0
    assert Tap.adds == 1  # the shared subtree must be evaluated once


def test_evaluate_dual_returns_directional_derivative():
    f = Program(1, [intpow(Var(0), 2)])
    val, eps = evaluate_dual(f, [3.0], [1.0])
    assert val == [9.0] and eps == [6.0]


def _reference(roots, args):
    """Recursive evaluation straight from the trees, the meaning a tape must keep.

    Children are visited right operand first and each node once, the order
    the compiled tape runs in, so the first error raised is comparable.  A
    float overflow is a DomainError, as in the tape.
    """
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Var):
            out = args[node.i]
        elif isinstance(node, Const):
            out = node.c
        elif isinstance(node, (Add, Sub, Mul, Div)):
            b = ev(node.b)
            a = ev(node.a)
            if isinstance(node, Add):
                out = a + b
            elif isinstance(node, Sub):
                out = a - b
            elif isinstance(node, Mul):
                out = a * b
            elif b == 0.0:
                raise DivisionByNilpotent("division by zero real part")
            else:
                out = a / b
        elif isinstance(node, Neg):
            out = -ev(node.x)
        elif isinstance(node, IntPow):
            x = ev(node.x)
            if x == 0.0 and node.k < 0:
                raise DivisionByNilpotent("zero real part raised to a negative power")
            out = x ** node.k
        else:
            out = apply_primitive(node.name, ev(node.x))
        memo[id(node)] = out
        return out

    try:
        return [ev(r) for r in roots]
    except OverflowError as err:
        raise DomainError(str(err)) from err


@st.composite
def _dags(draw, arity=3):
    """Random DAGs over x0..x2: every node may reuse any earlier node."""
    nodes = [Var(i) for i in range(arity)]
    nodes += [Const(c) for c in draw(st.lists(st.floats(-2, 2), min_size=1, max_size=3))]
    pick = st.integers(0, 10**6).map(lambda i: nodes[i % len(nodes)])
    ops = st.sampled_from(("add", "sub", "mul", "div", "neg", "intpow") + PRIMITIVES)
    for _ in range(draw(st.integers(1, 14))):
        op = draw(ops)
        x = draw(pick)
        if op in ("add", "sub", "mul", "div"):
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op]
            nodes.append(cls(x, draw(pick)))
        elif op == "neg":
            nodes.append(Neg(x))
        elif op == "intpow":
            nodes.append(IntPow(x, draw(st.integers(-3, 4))))
        else:
            nodes.append(Prim(op, x))
    roots = draw(st.lists(pick, min_size=1, max_size=3))
    roots.append(nodes[-1])
    return roots


_points = st.lists(st.floats(-2, 2), min_size=3, max_size=3)


def _outcome(thunk):
    try:
        return thunk()
    except (WeilError, ArithmeticError, ValueError) as err:
        return err


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(_dags(), _points)
# two failing operands: the right one is evaluated, and raises, first
@example([Add(Prim("log", Var(0)), Div(Var(1), Var(2)))], [-1.0, 1.0, 0.0])
def test_tape_matches_recursive_reference(roots, pt):
    got = _outcome(lambda: evaluate(Program(3, roots), pt))
    want = _outcome(lambda: _reference(roots, pt))
    if isinstance(want, Exception):
        assert type(got) is type(want)
    else:
        assert not isinstance(got, Exception), got
        assert _bits(got) == _bits(want)
    loose = _outcome(lambda: eval_exprs(roots, pt))
    assert type(loose) is type(got)
    if not isinstance(got, Exception):
        assert _bits(loose) == _bits(got)


def _near_a_pole(nodes, values):
    """Whether a quotient, negative power, log or sqrt has its argument near 0.

    There the two dual-number evaluations round differently by far more
    than their results' size, so only well-conditioned points compare.
    """
    value = {id(n): v for n, v in zip(nodes, values)}
    for n in nodes:
        if isinstance(n, Div):
            arg = n.b
        elif (isinstance(n, IntPow) and n.k < 0) or (isinstance(n, Prim) and n.name in ("log", "sqrt")):
            arg = n.x
        else:
            continue
        if abs(value[id(arg)]) < 0.25:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(_dags(), _points, _points)
def test_evaluate_dual_matches_dual_number_elements(roots, pt, tangent):
    nodes = []
    for root in roots:
        nodes.extend(n for n in postorder(root) if n not in nodes)
    prog = Program(3, nodes)  # every node is an output
    dual = make_basic("dual")
    elements = [AlgebraElement(dual, [x, t]) for x, t in zip(pt, tangent)]

    def generic():
        out = []
        for v in evaluate(prog, elements):
            out.append((v.coeffs[0], v.coeffs[1]) if isinstance(v, AlgebraElement) else (v, 0.0))
        return out

    want = _outcome(generic)
    got = _outcome(lambda: evaluate_dual(prog, pt, tangent))
    # an overflow of the element path (1/b for a subnormal b) need not recur
    # in the float path, which forms a/b directly
    if isinstance(want, WeilError) and not isinstance(want.__cause__, OverflowError):
        assert isinstance(got, WeilError)
        return
    assume(not isinstance(want, Exception) and not isinstance(got, Exception))
    assume(not _near_a_pole(nodes, got[0]))
    magnitudes = [abs(v) for pair in want for v in pair] + [abs(v) for v in got[0] + got[1]]
    assume(all(math.isfinite(v) for v in magnitudes))
    tol = 1e-12 * max([1.0] + magnitudes)
    for (rv, dv), r, d in zip(want, *got):
        assert abs(r - rv) <= tol
        assert abs(d - dv) <= tol


# -- column runs ----------------------------------------------------------------


def _same_numbers(got, want):
    """Bit for bit, except that any NaN matches any NaN."""
    return len(got) == len(want) and all(
        (math.isnan(g) and math.isnan(w)) or struct.pack("<d", g) == struct.pack("<d", w)
        for g, w in zip(got, want)
    )


_blocks = st.lists(_points, min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_dags(), _blocks, st.data())
def test_column_runs_match_point_runs(roots, pts, data):
    # where every point succeeds alone, one run over columns gives each
    # point's numbers, also where they overflow to inf or NaN
    prog = Program(3, roots)
    count = len(pts)
    cols = list(np.array(pts).T)
    single = [_outcome(lambda p=p: evaluate(prog, p)) for p in pts]
    if not any(isinstance(o, Exception) for o in single):
        with np.errstate(all="ignore"):
            got = stack_columns(evaluate(prog, cols), count)
        for row, want in zip(got, single):
            assert _same_numbers(row.tolist(), [float(v) for v in want])
    tangents = data.draw(st.lists(_points, min_size=count, max_size=count))
    dual = [_outcome(lambda p=p, t=t: evaluate_dual(prog, p, t)) for p, t in zip(pts, tangents)]
    if not any(isinstance(o, Exception) for o in dual):
        with np.errstate(all="ignore"):
            values, slopes = evaluate_dual(prog, cols, list(np.array(tangents).T))
        for got, side in ((values, 0), (slopes, 1)):
            for row, want in zip(stack_columns(got, count), dual):
                assert _same_numbers(row.tolist(), want[side])


@settings(max_examples=300, deadline=None)
@given(_dags(), _blocks)
def test_a_block_fails_as_its_first_failing_point(roots, pts):
    prog = Program(3, roots)
    want = _outcome(lambda: [evaluate(prog, p) for p in pts])
    got = _outcome(
        lambda: run_columns(
            pts,
            lambda block: stack_columns(evaluate(prog, list(block.T)), len(block)),
            lambda pt: evaluate(prog, pt.tolist()),
        )
    )
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        for row, w in zip(got, want):
            assert _same_numbers(row.tolist(), [float(v) for v in w])


_LIFT_ALGEBRAS = [
    make_basic("dual"),
    tensor(make_basic("dual"), make_basic("dual")),
    make_basic("truncated", 2, 2),
    make_basic("truncated", 3, 3),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_LIFT_ALGEBRAS), _dags(arity=2), st.data())
def test_value_at_on_a_block_matches_value_at_on_each_point(algebra, roots, data):
    pf = ProlongedField(algebra, VectorField(2, Program(2, roots[-2:])))
    flat = st.lists(st.floats(-2, 2), min_size=pf.dim, max_size=pf.dim)
    block = np.array(data.draw(st.lists(flat, min_size=1, max_size=4)))
    # numpy float scalars of the point path may overflow; that is no failure
    with np.errstate(all="ignore"):
        want = _outcome(lambda: [pf.value_at(p) for p in block])
        got = _outcome(lambda: pf.value_at(block))
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        # == on purpose: a column product keeps the 0*y terms the point
        # path skips, so a zero may come out with the other sign
        assert np.array_equal(got, np.array(want), equal_nan=True)


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "log", "sqrt", "recip"])
def test_symbolic_derivatives_evaluate_to_the_float_ones_exactly(name):
    # one coefficient rule feeds both paths, multiplied in the same order
    for shift in range(7):
        tree = _symbolic(name, shift, Var(0))
        for x in (0.1, 0.3, 0.5, 1.0, 1.7, 2.2, 3.0, 7.1, 12.5):
            assert eval_exprs([tree], [x])[0] == _numeric(name, shift, x), (shift, x)


def test_long_chains_compile_without_recursion():
    one = Const(1.0)
    e = Var(0)
    for _ in range(50_000):
        e = Add(e, one)
    prog = Program(1, [e])
    assert evaluate(prog, [0.5]) == [50_000.5]
    assert evaluate_dual(prog, [0.5], [1.0]) == ([50_000.5], [1.0])
    assert eval_exprs([e], [0.5]) == [50_000.5]


def test_program_documents_with_huge_integers():
    far = {"in": 1, "exprs": [{"op": "var", "i": 2**40}]}
    with pytest.raises(ArityMismatch):
        program_from_json(far)
    steep = {"in": 1, "exprs": [{"op": "intpow", "k": 10**20, "args": [{"op": "var", "i": 0}]}]}
    prog = program_from_json(steep)
    assert evaluate(prog, [0.5]) == [0.0]


def test_compose_runs_right_then_left():
    inc = Program(1, [Var(0) + 1])
    sq = Program(1, [intpow(Var(0), 2)])
    assert evaluate(compose(sq, inc), [2.0]) == [9.0]


def test_builders():
    assert evaluate(identity_program(2), [3.0, 4.0]) == [3.0, 4.0]
    assert evaluate(constant_program([7.0], arity_in=1), [0.0]) == [7.0]
    lin = linear_program([[0.0, 1.0], [-1.0, 0.0]])
    assert evaluate(lin, [1.0, 2.0]) == [2.0, -1.0]
    both = stack_programs([identity_program(1), constant_program([5.0], arity_in=1)])
    assert both.arity_out == 2
    assert evaluate(both, [9.0]) == [9.0, 5.0]


def test_jacobian_oracle_matches_analytic_jacobian():
    field = VectorField(
        2, Program(2, [intpow(Var(0), 2), mul(Var(0), Var(1))])
    )
    got = jacobian_oracle(field, [1.5, -2.0])
    want = np.array([[3.0, 0.0], [-2.0, 1.5]])
    assert np.abs(got - want).max() < 1e-6
    got = jacobian_oracle(field, [1.5, -2.0], richardson=True)
    assert np.abs(got - want).max() < 1e-9


# -- serialization --------------------------------------------------------------


def test_program_json_round_trip():
    f = Program(2, [add(intpow(Var(0), 3), prim("cos", Var(1))), div(Var(0), Var(1))])
    g = program_from_json(program_to_json(f))
    assert g.arity_in == 2 and g.arity_out == 2
    pt = [0.7, 1.3]
    assert np.allclose(evaluate(g, pt), evaluate(f, pt), atol=0.0)
    assert program_dumps(g) == program_dumps(f)


def test_program_json_rejects_unknown_keys():
    doc = program_to_json(identity_program(1))
    doc["note"] = "hi"
    with pytest.raises(ShapeMismatch):
        program_from_json(doc)


def test_program_json_rejects_out_mismatch():
    doc = program_to_json(identity_program(1))
    doc["out"] = 3
    with pytest.raises(ShapeMismatch):
        program_from_json(doc)


def test_field_json_round_trip_and_strictness():
    field = VectorField(1, Program(1, [intpow(Var(0), 2)]))
    again = field_from_json(field_to_json(field))
    assert again.dim == 1
    assert evaluate(again.components, [3.0]) == [9.0]
    with pytest.raises(ShapeMismatch):
        field_from_json({"dim": 1})
    with pytest.raises(ShapeMismatch):
        field_from_json({"dim": 1, "components": program_to_json(identity_program(1)), "x": 0})


def test_random_programs_are_seed_deterministic():
    a = random_poly_program(np.random.default_rng(11), 2, 2, deg=3)
    b = random_poly_program(np.random.default_rng(11), 2, 2, deg=3)
    assert program_dumps(a) == program_dumps(b)
    c = random_poly_program(np.random.default_rng(12), 2, 2, deg=3)
    assert program_dumps(a) != program_dumps(c)
