"""Lifting programs through an algebra: forward-mode derivatives of all orders."""

import math

import numpy as np
import pytest

from weilcalc.algebra import make_basic, rho, tensor
from weilcalc.errors import AlgebraMismatch, ShapeMismatch
from weilcalc.exprs import Var, intpow, mul, prim
from weilcalc.functor import (
    WeilPoint,
    check_iterated_lift,
    flatten,
    lift,
    lift_elements,
    lift_program,
    point_from_flat,
    point_from_json,
    point_from_reals,
    point_to_json,
    transform,
    unflatten,
)
from weilcalc.programs import Program, compose, evaluate, random_poly_program

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)
T13 = make_basic("truncated", 1, 3)
T22 = make_basic("truncated", 2, 2)


def test_dual_lift_carries_the_derivative():
    f = Program(1, [intpow(Var(0), 3) + 2.0 * Var(0)])
    p = WeilPoint(DUAL, [DUAL.element([2.0, 1.0])])
    q = lift(DUAL, f)(p)
    assert q.coords[0].coeffs == (12.0, 14.0)  # f(2), f'(2)


def test_truncated_lift_is_the_taylor_expansion():
    f = Program(1, [prim("sin", Var(0))])
    x = T13.element([0.3, 1.0, 0.0, 0.0])
    out = lift(T13, f)(WeilPoint(T13, [x]))
    want = [
        math.sin(0.3),
        math.cos(0.3),
        -math.sin(0.3) / 2,
        -math.cos(0.3) / 6,
    ]
    got = [float(c) for c in out.coords[0].coeffs]
    assert np.allclose(got, want, atol=1e-14)


def test_multivariate_lift_collects_partial_derivatives():
    # f(x, y) = x^2 y at (2, 3); coefficient of each monomial is the
    # matching partial divided by the factorial of the exponent vector
    f = Program(2, [mul(intpow(Var(0), 2), Var(1))])
    g1, g2 = T22.generator_elements()
    out = lift_elements(T22, f, [g1 + 2.0, g2 + 3.0])[0]
    assert [float(c) for c in out.coeffs] == [12.0, 12.0, 4.0, 3.0, 4.0, 0.0]


def test_lift_program_agrees_with_lift():
    rng = np.random.default_rng(5)
    f = random_poly_program(rng, 2, 2, deg=3)
    flatf = lift_program(T12, f)
    assert flatf.arity_in == 2 * T12.dim
    flat = rng.uniform(-1, 1, size=2 * T12.dim)
    p = point_from_flat(T12, 2, flat)
    q = lift(T12, f)(p)
    assert np.allclose(evaluate(flatf, list(flat)), q.flat(), atol=1e-12)


@pytest.mark.parametrize("algebra", [T13, T22], ids=lambda a: a.name)
def test_lift_program_renders_log_sqrt_and_quotients(algebra):
    # symbolic Taylor coefficients of log, sqrt and 1/x at orders >= 1
    x, y = Var(0), Var(1)
    f = Program(2, [
        prim("log", 2.0 + intpow(x, 2) + y) + prim("sqrt", 3.0 + x * y),
        x / (2.0 + intpow(y, 2)) - intpow(1.5 + x, -2),
    ])
    flatf = lift_program(algebra, f)
    rng = np.random.default_rng(23)
    for _ in range(4):
        flat = rng.uniform(-0.5, 0.5, size=2 * algebra.dim)
        q = lift(algebra, f)(point_from_flat(algebra, 2, flat))
        assert np.allclose(evaluate(flatf, list(flat)), q.flat(), rtol=0.0, atol=1e-12)


def test_lift_respects_composition():
    rng = np.random.default_rng(17)
    g = random_poly_program(rng, 2, 3, deg=2)
    f = random_poly_program(rng, 3, 1, deg=2)
    fg = lift(T12, compose(f, g))
    step = lift(T12, f)
    first = lift(T12, g)
    for _ in range(10):
        p = point_from_flat(T12, 2, rng.uniform(-0.8, 0.8, size=2 * T12.dim))
        direct = fg(p)
        chained = step(first(p))
        assert np.abs(direct.flat() - chained.flat()).max() < 1e-12


def test_projection_to_reals_commutes_with_evaluation():
    rng = np.random.default_rng(3)
    f = random_poly_program(rng, 2, 2, deg=3)
    p = point_from_flat(T12, 2, rng.uniform(-1, 1, size=2 * T12.dim))
    lifted = lift(T12, f)(p)
    down = transform(rho(T12), lifted)
    base = evaluate(f, [float(v) for v in p.real_parts()])
    assert np.allclose(down.flat(), base, atol=1e-12)


def test_transform_rejects_points_over_other_algebras():
    p = point_from_reals(T12, [1.0])
    with pytest.raises(AlgebraMismatch):
        transform(rho(DUAL), p)


def test_point_flat_round_trip():
    flat = np.array([1.0, 2.0, 3.0, 4.0])
    p = point_from_flat(DUAL, 2, flat)
    assert p.dim == 2
    assert np.array_equal(p.flat(), flat)
    assert np.array_equal(p.real_parts(), [1.0, 3.0])


def test_point_from_reals_pads_nilpotent_slots():
    p = point_from_reals(T12, [2.0, -1.0])
    assert np.array_equal(p.flat(), [2.0, 0.0, 0.0, -1.0, 0.0, 0.0])


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(23)
    # an iterated point stores inner coefficient blocks as outer coordinates
    p = point_from_flat(DUAL, 2 * T12.dim, rng.uniform(-1, 1, size=2 * T12.dim * DUAL.dim))
    q = flatten(p, DUAL, T12)
    assert q.algebra.same_structure(tensor(DUAL, T12))
    assert q.dim == 2
    back = unflatten(q, DUAL, T12)
    assert np.allclose(back.flat(), p.flat(), atol=0.0)


def test_flatten_rejects_indivisible_points():
    p = point_from_reals(DUAL, [1.0])
    with pytest.raises(ShapeMismatch):
        flatten(p, DUAL, T12)


def test_iterated_lift_is_a_single_tensor_lift():
    rng = np.random.default_rng(7)
    for outer, inner in [(DUAL, DUAL), (DUAL, T12), (make_basic("truncated", 2, 1), DUAL)]:
        out = check_iterated_lift(outer, inner, programs=6, rng=rng, tol=1e-10)
        assert out["failures"] == []
        assert out["max_error"] <= 1e-10


def test_point_json_round_trip():
    p = point_from_flat(T12, 2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    q = point_from_json(point_to_json(p), T12)
    assert np.array_equal(q.flat(), p.flat())


def test_point_json_checks_algebra_name():
    doc = point_to_json(point_from_reals(T12, [1.0]))
    with pytest.raises(AlgebraMismatch):
        point_from_json(doc, DUAL)
    doc["extra"] = 1
    with pytest.raises(ShapeMismatch):
        point_from_json(doc, T12)
