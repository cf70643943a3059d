"""Lifting programs through an algebra: forward-mode derivatives of all orders."""

import math

import numpy as np
import pytest

from weilcalc.algebra import AlgebraElement, make_basic, rho, tensor
from weilcalc.errors import AlgebraMismatch, ShapeMismatch
from weilcalc.exprs import Const, Var, intpow, mul, prim
from weilcalc.functor import (
    WeilPoint,
    check_iterated_lift,
    flatten,
    lift,
    lift_elements,
    lift_program,
    point_from_flat,
    transform,
    unflatten,
)
from weilcalc.programs import (
    Program,
    compose,
    evaluate,
    poly_template,
    program_dumps,
    random_poly_program,
)
from weilcalc.reports import tally

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)
T13 = make_basic("truncated", 1, 3)
T22 = make_basic("truncated", 2, 2)


def test_dual_lift_carries_the_derivative():
    f = Program(1, [intpow(Var(0), 3) + 2.0 * Var(0)])
    p = WeilPoint(DUAL, [AlgebraElement(DUAL, [2.0, 1.0])])
    q = lift(DUAL, f)(p)
    assert q.coords[0].coeffs == (12.0, 14.0)  # f(2), f'(2)


def test_truncated_lift_is_the_taylor_expansion():
    f = Program(1, [prim("sin", Var(0))])
    x = AlgebraElement(T13, [0.3, 1.0, 0.0, 0.0])
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


@pytest.mark.parametrize("algebra", [DUAL, T12, T22, tensor(DUAL, DUAL)], ids=lambda a: a.name)
def test_lift_program_of_the_identity_lists_the_coefficient_variables(algebra):
    # coordinate-major: the rendering is Var(0) .. Var(n*dimA - 1) in order
    n = 3
    lifted = lift_program(algebra, Program(n, [Var(i) for i in range(n)]))
    width = n * algebra.dim
    assert program_dumps(lifted) == program_dumps(Program(width, [Var(i) for i in range(width)]))


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
    base = evaluate(f, [float(v) for v in p.coefficient_array()[:, T12.unit_index]])
    assert np.allclose(down.flat(), base, atol=1e-12)


def test_transform_rejects_points_over_other_algebras():
    p = WeilPoint(T12, [T12.unit(1.0)])
    with pytest.raises(AlgebraMismatch):
        transform(rho(DUAL), p)


def test_point_flat_round_trip():
    flat = np.array([1.0, 2.0, 3.0, 4.0])
    p = point_from_flat(DUAL, 2, flat)
    assert p.dim == 2
    assert np.array_equal(p.flat(), flat)
    assert np.array_equal(p.coefficient_array()[:, DUAL.unit_index], [1.0, 3.0])


def test_coefficient_array_takes_columns_and_refuses_expressions():
    col = np.array([1.0, -2.0, 3.0])
    arr = point_from_flat(DUAL, 2, [col, 0.5, -col, 2.0]).coefficient_array()
    assert arr.shape == (2, 2, 3)
    assert np.array_equal(arr[:, 0], [col, -col])
    assert np.array_equal(arr[:, 1], [[0.5] * 3, [2.0] * 3])
    # the docstring's guard holds for floats and for columns alike
    for flat in ([Var(0), 1.0], [col, Var(1)]):
        with pytest.raises(ShapeMismatch):
            point_from_flat(DUAL, 1, flat).coefficient_array()


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(23)
    # an iterated point stores inner coefficient blocks as outer coordinates
    p = point_from_flat(DUAL, 2 * T12.dim, rng.uniform(-1, 1, size=2 * T12.dim * DUAL.dim))
    q = flatten(p, DUAL, T12)
    assert q.algebra == tensor(DUAL, T12)
    assert q.dim == 2
    back = unflatten(q, DUAL, T12)
    assert np.allclose(back.flat(), p.flat(), atol=0.0)


def test_flatten_rejects_indivisible_points():
    p = WeilPoint(DUAL, [DUAL.unit(1.0)])
    with pytest.raises(ShapeMismatch):
        flatten(p, DUAL, T12)


def test_iterated_lift_is_a_single_tensor_lift():
    rng = np.random.default_rng(7)
    for outer, inner in [(DUAL, DUAL), (DUAL, T12), (make_basic("truncated", 2, 1), DUAL)]:
        out = check_iterated_lift(outer, inner, 2, rng=rng, samples=6, tol=1e-10)
        assert out["failures"] == []
        assert out["max_error"] <= 1e-10


def _iterated_lift_per_trial(outer, inner, n, rng, samples, tol):
    """The per-trial loop check_iterated_lift replaces: each trial draws
    its quadratic with random_poly_program and compiles it, adds the
    trial's primitive rotation, and lifts it once per side."""
    t = tensor(outer, inner)
    prims = ("sin", "cos", "exp")
    devs = []
    for trial in range(samples):
        f = random_poly_program(rng, n, n, deg=2, scale=0.5)
        body = []
        for i, e in enumerate(f.exprs):
            if trial % 2 == 0:
                e = e + Const(0.3) * prim(prims[(trial + i) % 3], e)
            body.append(e)
        f = Program(n, body)
        p_t = point_from_flat(t, n, rng.uniform(-0.7, 0.7, size=n * t.dim))
        direct = lift(t, f)(p_t)
        twice = flatten(lift(outer, lift_program(inner, f))(unflatten(p_t, outer, inner)), outer, inner)
        devs.append(({"pair": 0, "trial": trial}, float(np.abs(direct.flat() - twice.flat()).max(initial=0.0))))
    return tally(devs, tol)


@pytest.mark.parametrize("outer, inner", [(DUAL, DUAL), (DUAL, T12), (make_basic("truncated", 2, 1), DUAL)])
def test_iterated_lift_matches_a_per_trial_loop_bit_for_bit(outer, inner):
    out = check_iterated_lift(outer, inner, 2, rng=np.random.default_rng(12), samples=7, tol=0.0)
    assert out == _iterated_lift_per_trial(outer, inner, 2, np.random.default_rng(12), 7, 0.0)
    assert out["max_error"] > 0.0  # a tolerance of 0 lists the nonzero deviations


def test_a_lift_takes_the_programs_parameters_after_the_point():
    f = poly_template(2, 2, 2)
    rng = np.random.default_rng(13)
    point = point_from_flat(T12, 2, rng.uniform(-1.0, 1.0, size=2 * T12.dim))
    params = rng.uniform(-0.5, 0.5, size=f.params).tolist()
    got = lift(T12, f)(point, *params)
    want = lift_elements(T12, f, [*point.coords, *params])
    assert [el.coeffs for el in got.coords] == [el.coeffs for el in want]


def test_flat_puts_point_b_of_column_coefficients_in_column_b():
    rng = np.random.default_rng(14)
    flats = rng.uniform(-1.0, 1.0, size=(5, 2 * T12.dim))
    columns = point_from_flat(T12, 2, list(flats.T)).flat()
    assert columns.shape == (2 * T12.dim, 5)
    for b, flat in enumerate(flats):
        assert np.array_equal(columns[:, b], point_from_flat(T12, 2, flat).flat())
