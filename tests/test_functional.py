"""Functional bundles: jets of fiber maps, finite-order fields, prolongation."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilcalc import functional
from weilcalc.algebra import make_basic
from weilcalc.errors import ArityMismatch, ShapeMismatch
from weilcalc.exprs import Const, Var, intpow
from weilcalc.functional import (
    FunctionalVectorField,
    check_bracket_preserved,
    check_order_locality,
    check_polynomial_family,
    fiber_arity,
    functional_bracket,
    functional_field_from_json,
    functional_field_prolong,
    functional_field_to_json,
    fvf_value,
    g_functional,
    jet_values,
    random_functional_field,
)
from weilcalc.jets import jet_triple
from weilcalc.programs import (
    Program,
    VectorField,
    evaluate,
    evaluate_points,
    jacobian_oracle,
    poly_template,
    program_to_json,
    random_poly_program,
)
from weilcalc.prolong import field_prolong
from weilcalc.reports import tally

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)

ZERO1 = Program(1, [Const(0.0)])


def _field(m, q1, q2, r, d_exprs, xi=None):
    base = xi if xi is not None else Program(m, [Const(0.0)] * m)
    return FunctionalVectorField(m, q1, q2, r, base, Program(fiber_arity(m, q1, q2, r), d_exprs))


# -- jets of fiber maps ---------------------------------------------------------


def test_fiber_arity_counts_jet_slots():
    assert fiber_arity(1, 1, 1, 2) == 5  # x, y, z0, z1, z2
    assert fiber_arity(2, 1, 1, 1) == 5
    assert fiber_arity(1, 2, 1, 1) == 6  # 3 monomials in two variables


def test_jet_values_are_plain_derivatives():
    h = Program(1, [intpow(Var(0), 3)])
    assert np.array_equal(jet_values(h, [2.0], 2), [8.0, 12.0, 12.0])


def test_jet_values_multivariate():
    h = Program(2, [Var(0) * intpow(Var(1), 2)])
    got = jet_values(h, [2.0, 3.0], 2)
    # order: 1, y1, y2, y1^2, y1 y2, y2^2
    assert np.allclose(got, [18.0, 9.0, 12.0, 0.0, 6.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("q1, r", [(1, 0), (1, 2), (2, 1)])
def test_jet_values_of_a_block_equal_its_rows_run_one_at_a_time(q1, r):
    h = poly_template(q1, 2, r + 2)
    rng = np.random.default_rng(15)
    block = np.hstack([rng.uniform(-1.0, 1.0, size=(6, q1)), rng.uniform(-0.6, 0.6, size=(6, h.params))])
    got = jet_values(h, block, r)
    assert got.shape == (6, 2 * len(functional.monomials(q1, r)))
    for row, want in zip(block, got):
        assert np.array_equal(jet_values(h, row, r), want)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_jet_values_miss_a_term_of_order_r_plus_one(r):
    # what the locality suite rests on: order-r jets at y0 cannot see a
    # term vanishing to order r + 1 there, and do see one of order r
    y0, c = 0.5, 1.75
    h = Program(1, [intpow(Var(0), 3) - 2.0 * Var(0) + 1.0])

    def bumped(k):
        return Program(1, [h.exprs[0] + c * intpow(Var(0) - y0, k)])

    want = jet_values(h, [y0], r)
    assert np.array_equal(jet_values(bumped(r + 1), [y0], r), want)
    assert not np.allclose(jet_values(bumped(r), [y0], r), want)


# -- fields and brackets ---------------------------------------------------------------


def test_field_arity_validation():
    with pytest.raises(ArityMismatch):
        FunctionalVectorField(1, 1, 1, 1, ZERO1, Program(3, [Var(0)]))
    with pytest.raises(ArityMismatch):
        FunctionalVectorField(1, 1, 1, 0, Program(2, [Var(0), Var(1)]), Program(3, [Var(0)]))


def test_fvf_value_feeds_jets_to_the_vertical_map():
    field = _field(1, 1, 1, 0, [Var(1) * Var(2)])  # hdot = y * h(y)
    h = Program(1, [intpow(Var(0), 2) + 2.0 * Var(0)])
    xdot, hdot = fvf_value(field, [0.3], h, [0.5])
    assert np.array_equal(xdot, [0.0])
    assert np.allclose(hdot, [0.5 * 1.25])


def test_bracket_of_multiplication_and_differentiation():
    x1 = _field(1, 1, 1, 0, [Var(1) * Var(2)])  # hdot = y h
    x2 = _field(1, 1, 1, 1, [Var(3)])  # hdot = h'
    br = functional_bracket(x1, x2)
    assert br.r == 1
    h = Program(1, [intpow(Var(0), 2) + 2.0 * Var(0)])
    _, hdot = fvf_value(br, [0.3], h, [0.5])
    # [y*, d/dy] h = y h' - (h + y h') = -h; emitted with the sign of
    # flowing x1 along x2 first
    assert np.allclose(hdot, [1.25])


def test_bracket_order_adds():
    rng = np.random.default_rng(27)
    x1 = random_functional_field(rng, 1, 1, 1, 1)
    x2 = random_functional_field(rng, 1, 1, 1, 2)
    assert functional_bracket(x1, x2).r == 3


def test_bracket_is_antisymmetric_at_samples():
    rng = np.random.default_rng(28)
    x1 = random_functional_field(rng, 1, 1, 1, 1)
    x2 = random_functional_field(rng, 1, 1, 1, 1)
    fwd = functional_bracket(x1, x2)
    rev = functional_bracket(x2, x1)
    for _ in range(5):
        h = Program(1, [sum((rng.uniform(-1, 1) * intpow(Var(0), k) for k in range(5)), Const(0.0))])
        x = rng.uniform(-1, 1, size=1)
        y = rng.uniform(-1, 1, size=1)
        fb, fv = fvf_value(fwd, x, h, y)
        rb, rv = fvf_value(rev, x, h, y)
        assert np.allclose(fb, -rb, atol=1e-12)
        assert np.allclose(fv, -rv, atol=1e-10)


def test_base_only_fields_bracket_like_vector_fields():
    from weilcalc.strongdiff import bracket_value

    rng = np.random.default_rng(29)
    xi1 = Program(1, [0.4 * intpow(Var(0), 2)])
    xi2 = Program(1, [1.0 + 0.3 * Var(0)])
    zero_d = Program(fiber_arity(1, 1, 1, 0), [Const(0.0)])
    x1 = FunctionalVectorField(1, 1, 1, 0, xi1, zero_d)
    x2 = FunctionalVectorField(1, 1, 1, 0, xi2, zero_d)
    br = functional_bracket(x1, x2)
    from weilcalc.programs import VectorField

    want = bracket_value(VectorField(1, xi1), VectorField(1, xi2), [0.6])
    xdot, hdot = fvf_value(br, [0.6], Program(1, [Var(0)]), [0.1])
    assert np.allclose(xdot, want, atol=1e-12)
    assert np.allclose(hdot, [0.0], atol=1e-12)


# -- serialization ----------------------------------------------------------------------


def test_field_json_round_trip():
    rng = np.random.default_rng(30)
    field = random_functional_field(rng, 1, 1, 1, 2)
    doc = functional_field_to_json(field)
    again = functional_field_from_json(doc)
    assert (again.m, again.q1, again.q2, again.r) == (1, 1, 1, 2)
    h = Program(1, [intpow(Var(0), 3)])
    a = fvf_value(field, [0.4], h, [0.2])
    b = fvf_value(again, [0.4], h, [0.2])
    assert np.allclose(a[0], b[0], atol=0.0) and np.allclose(a[1], b[1], atol=0.0)


def test_field_json_requires_exact_keys():
    doc = functional_field_to_json(random_functional_field(np.random.default_rng(1), 1, 1, 1, 1))
    doc["note"] = "x"
    with pytest.raises(ShapeMismatch):
        functional_field_from_json(doc)
    del doc["note"]
    del doc["r"]
    with pytest.raises(ShapeMismatch):
        functional_field_from_json(doc)


@pytest.mark.parametrize("q1, r, ok", [(2, 9, True), (2, 10, False), (1, 63, True), (1, 64, False)])
def test_field_json_refuses_jets_past_max_dim(q1, r, ok):
    # truncated(2,9) has dim 55, truncated(2,10) 66, truncated(1,63) 64
    doc = {
        "m": 1, "q1": q1, "q2": 1, "r": r,
        "xi": program_to_json(ZERO1),
        "D": program_to_json(Program(fiber_arity(1, q1, 1, r) if ok else 3, [Var(0)])),
    }
    if ok:
        assert functional_field_from_json(doc).r == r
    else:
        with pytest.raises(ShapeMismatch, match="truncated\\(%d,%d\\)" % (q1, r)):
            functional_field_from_json(doc)


# -- prolongation ------------------------------------------------------------------------


def test_prolonged_field_projects_to_the_original():
    rng = np.random.default_rng(33)
    field = random_functional_field(rng, 1, 1, 1, 1)
    lifted = functional_field_prolong(DUAL, field)
    assert (lifted.m, lifted.q1, lifted.q2) == (DUAL.dim, 1, DUAL.dim)
    h = Program(1, [0.3 * intpow(Var(0), 2) + Var(0)])
    # embed: x real in the unit slot, fiber map with zero eps block
    hhat = Program(1, list(h.exprs) + [Const(0.0)])
    x = [0.4, 0.0]
    y = [0.6]
    xdot, hdot = fvf_value(lifted, x, hhat, y)
    base_xdot, base_hdot = fvf_value(field, [0.4], h, y)
    assert np.allclose(xdot[::DUAL.dim], base_xdot, atol=1e-12)
    assert np.allclose(hdot[::DUAL.dim], base_hdot, atol=1e-12)


@pytest.mark.parametrize("algebra", [DUAL, T12], ids=lambda a: a.name)
def test_prolongation_preserves_brackets(algebra):
    rng = np.random.default_rng(34)
    x1 = random_functional_field(rng, 1, 1, 1, 1)
    x2 = random_functional_field(rng, 1, 1, 1, 1)
    out = check_bracket_preserved(partial(functional_field_prolong, algebra), x1, x2, samples=8, rng=rng, tol=1e-6)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-6


@pytest.mark.parametrize(
    "algebra", [DUAL, T12, make_basic("truncated", 2, 1)], ids=lambda a: a.name
)
@pytest.mark.parametrize("m", [1, 2])
def test_prolongation_over_a_point_is_the_manifold_prolongation(algebra, m):
    # a fibered manifold is the functional bundle with fibres C^inf(pt, R^q):
    # with q1 = 0 and r = 0 the lifted base and vertical parts, read on the
    # coordinate-major layout, are the prolongation of the whole field
    rng = np.random.default_rng(37 + m)
    q, da = 2, algebra.dim
    xi = random_poly_program(rng, m, m, deg=2, scale=0.5)
    fibre = random_poly_program(rng, m + q, q, deg=2, scale=0.5)
    field = VectorField(m + q, Program(m + q, xi.exprs + fibre.exprs))
    lifted = functional_field_prolong(algebra, FunctionalVectorField(m, 0, q, 0, xi, fibre))
    pf = field_prolong(algebra, field)
    for _ in range(50):
        flat = list(rng.uniform(-1.0, 1.0, size=(m + q) * da))
        got = evaluate(lifted.xi, flat[: m * da]) + evaluate(lifted.D, flat)
        assert np.array_equal(got, pf.value_at(flat))


def test_jet_prolongation_preserves_brackets():
    rng = np.random.default_rng(35)
    triple = jet_triple(1, 1)
    x1 = random_functional_field(rng, 1, 1, 1, 1)
    x2 = random_functional_field(rng, 1, 1, 1, 1)
    out = check_bracket_preserved(partial(g_functional, triple), x1, x2, samples=8, rng=rng, tol=1e-6)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-6


@pytest.mark.parametrize(
    "prolong",
    [partial(functional_field_prolong, DUAL), partial(functional_field_prolong, T12), partial(g_functional, jet_triple(1, 1))],
    ids=["dual", "truncated(1,2)", "jet(1,1)"],
)
@pytest.mark.parametrize("orders", [(1, 1), (0, 1)])
def test_bracket_check_matches_a_per_trial_loop_bit_for_bit(prolong, orders):
    # the reference lifts each trial's fibre map through fvf_value, once per side
    rng = np.random.default_rng(60 + orders[0])
    x1, x2 = (random_functional_field(rng, 1, 1, 1, r) for r in orders)
    out = check_bracket_preserved(prolong, x1, x2, samples=6, rng=np.random.default_rng(5), tol=0.0)
    lhs = prolong(functional_bracket(x1, x2))
    rhs = functional_bracket(prolong(x1), prolong(x2))
    deg = 2 * sum(orders) + 1
    rng = np.random.default_rng(5)
    devs = []
    for trial in range(6):
        x = rng.uniform(-1.0, 1.0, size=lhs.m)
        hhat = random_poly_program(rng, lhs.q1, lhs.q2, deg=deg, scale=0.6)
        y = rng.uniform(-1.0, 1.0, size=lhs.q1)
        (lb, lv), (rb, rv) = fvf_value(lhs, x, hhat, y), fvf_value(rhs, x, hhat, y)
        devs.append(({"pair": 0, "trial": trial}, float(np.abs(np.concatenate([lb - rb, lv - rv])).max())))
    assert out == tally(devs, 0.0)
    assert out["max_error"] > 0.0  # a tolerance of 0 lists the nonzero deviations


def test_a_nan_fibre_velocity_fails_the_bracket_check():
    # x0*1e300*1e300 overflows to inf off x0 = 0, and inf - inf is NaN
    big = Var(0) * 1e300 * 1e300
    x1 = _field(1, 1, 1, 1, [big - big])
    x2 = _field(1, 1, 1, 1, [Var(3)], xi=Program(1, [Const(1.0)]))
    out = check_bracket_preserved(partial(functional_field_prolong, DUAL), x1, x2, samples=5, rng=np.random.default_rng(1), tol=1e-6)
    assert len(out["failures"]) == 5
    assert all(math.isnan(f["deviation"]) for f in out["failures"])


def test_vertical_jet_prolongation_is_the_total_derivative():
    # with a vertical field the frame stays put and the epsilon slot of the
    # prolonged velocity must be the full x derivative of D along the jet
    triple = jet_triple(1, 1)
    d_expr = Var(0) * Var(3) + Var(1) * intpow(Var(2), 2)  # x z1 + y z0^2
    field = _field(1, 1, 1, 1, [d_expr])
    gx = g_functional(triple, field)
    assert (gx.m, gx.q1, gx.q2, gx.r) == (1, 1, 2, 1)
    pt = [0.5, 2.0, 3.0, 0.25, -1.0, 0.75]  # x, y, z0, z0eps, z1, z1eps
    got = evaluate(gx.D, pt)
    # value slot: D itself; eps slot: Dx + Dz0 z0eps + Dz1 z1eps
    assert np.allclose(got, [17.5, 2.375], atol=1e-12)


def test_jet_prolongation_checks_base_dimension():
    field = random_functional_field(np.random.default_rng(2), 2, 1, 1, 1)
    with pytest.raises(ShapeMismatch):
        g_functional(jet_triple(1, 1), field)


# -- advertised reductions -----------------------------------------------------------------


def test_order_r_locality():
    out = check_order_locality(1, 1, 1, 2, rng=np.random.default_rng(36), samples=8, tol=1e-10)
    assert out["max_error"] <= 1e-10
    assert out["failures"] == []


def _locality_per_trial(m, q1, q2, r, rng, samples, tol):
    """The per-trial loop check_order_locality replaces: each trial draws
    the associated map and h with random_poly_program and compiles them
    and the perturbed h."""

    def apply(fiber, x, h, y0):
        y = [float(c) for c in y0]
        return np.asarray(evaluate(fiber, [*map(float, x), *y, *jet_values(h, y, r), *y]), dtype=float)

    devs = []
    for trial in range(samples):
        fiber = random_poly_program(rng, fiber_arity(m, q1, q2, r) + q1, q2, deg=2, scale=0.6)
        h1 = random_poly_program(rng, q1, q2, deg=r + 2, scale=0.6)
        y0 = rng.uniform(-0.8, 0.8, size=q1)
        body = []
        for e in h1.exprs:
            for kappa in functional.monomials(q1, r + 1, mindeg=r + 1):
                term = Const(float(rng.uniform(-1.0, 1.0)))
                for j, k in enumerate(kappa):
                    if k:
                        term = term * (Var(j) - float(y0[j])) ** k
                e = e + term
            body.append(e)
        h2 = Program(q1, body)
        x = rng.uniform(-1.0, 1.0, size=m)
        gap = np.abs(apply(fiber, x, h1, y0) - apply(fiber, x, h2, y0)).max(initial=0.0)
        devs.append(({"pair": 0, "trial": trial}, float(gap)))
    return tally(devs, tol)


@pytest.mark.parametrize("sig", [(1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 1), (2, 2, 2, 1)])
@pytest.mark.parametrize("planted", [False, True])
def test_locality_matches_a_per_trial_loop_bit_for_bit(monkeypatch, sig, planted):
    if planted:
        # perturb by terms of degree r, which order-r jets do see
        monomials = functional.monomials

        def degree_r(n, deg, mindeg=0):
            return monomials(n, deg - 1, mindeg=deg - 1) if mindeg == deg else monomials(n, deg, mindeg)

        monkeypatch.setattr(functional, "monomials", degree_r)
    out = check_order_locality(*sig, rng=np.random.default_rng(16), samples=6, tol=0.0)
    assert out == _locality_per_trial(*sig, np.random.default_rng(16), 6, 0.0)
    assert (out["max_error"] > 0.0) == planted


def _polynomial_family_per_rate_call(x1, x2, d, rng, samples):
    """check_polynomial_family's deviations as it computed them before it
    rendered the induced fields: each rate call compiles its fibre
    polynomial and fits fvf_value's node values, and a per-trial central
    difference of step 1e-5 takes the Jacobians."""
    m = x1.m
    nodes = np.linspace(-1.0, 1.0, d + 1)
    vander_inv = np.linalg.inv(np.vander(nodes, d + 1, increasing=True))

    def rate_of(field):
        def rate(w):
            h = Program(1, [sum((Const(float(c)) * Var(0) ** k for k, c in enumerate(w[m:])), Const(0.0))])
            xdot = np.asarray(evaluate(field.xi, [float(v) for v in w[:m]]), dtype=float)
            vals = np.array([fvf_value(field, w[:m], h, [t])[1][0] for t in nodes])
            return np.concatenate([xdot, vander_inv @ vals])

        return rate

    f1, f2, fb = rate_of(x1), rate_of(x2), rate_of(functional_bracket(x1, x2))
    n = m + d + 1

    def jac(f, w):
        cols = []
        for j in range(n):
            wp, wm = w.copy(), w.copy()
            wp[j] += 1e-5
            wm[j] -= 1e-5
            cols.append((f(wp) - f(wm)) / 2e-5)
        return np.array(cols).T

    devs = []
    for _ in range(samples):
        w = rng.uniform(-0.8, 0.8, size=n)
        want = jac(f2, w) @ f1(w) - jac(f1, w) @ f2(w)
        devs.append(float(np.abs(want - fb(w)).max(initial=0.0)))
    return devs


def _polynomial_family_per_trial(x1, x2, d, rng, samples, tol):
    """check_polynomial_family as a loop of single-point calls over the
    rendered induced fields."""
    f1, f2, fb = (functional._family_field(f, d).components for f in (x1, x2, functional_bracket(x1, x2)))
    devs = []
    for trial in range(samples):
        w = rng.uniform(-0.8, 0.8, size=x1.m + d + 1)
        want = jacobian_oracle(f2, w) @ evaluate_points(f1, w) - jacobian_oracle(f1, w) @ evaluate_points(f2, w)
        devs.append(({"pair": 0, "trial": trial}, float(np.abs(want - evaluate_points(fb, w)).max(initial=0.0))))
    return tally(devs, tol)


# random fields, which do not keep the family: every trial deviates
FAMILY_PAIRS = [
    [random_functional_field(np.random.default_rng(17 + i), 1, 1, 1, 1) for i in range(2)],
    [random_functional_field(np.random.default_rng(40 + i), 2, 1, 1, r) for i, r in enumerate((1, 2))],
]


@pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=["m=1", "m=2"])
def test_polynomial_family_block_matches_a_per_trial_loop_bit_for_bit(pair):
    out = check_polynomial_family(*pair, 3, rng=np.random.default_rng(18), samples=4, tol=0.0)
    assert out == _polynomial_family_per_trial(*pair, 3, np.random.default_rng(18), 4, 0.0)
    assert len(out["failures"]) == 4


@pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=["m=1", "m=2"])
def test_polynomial_family_agrees_with_the_per_rate_call_reference(pair):
    out = check_polynomial_family(*pair, 3, rng=np.random.default_rng(18), samples=4, tol=0.0)
    got = [f["deviation"] for f in out["failures"]]
    want = _polynomial_family_per_rate_call(*pair, 3, np.random.default_rng(18), 4)
    assert len(got) == 4 and np.allclose(got, want, rtol=0.0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2]),
    r=st.sampled_from([1, 2]),
    w=st.lists(st.floats(-0.8, 0.8), min_size=6, max_size=6),
)
def test_the_family_field_is_the_fitted_fibre_velocity(seed, m, r, w):
    d = 3
    field = random_functional_field(np.random.default_rng(seed), m, 1, 1, r)
    w = np.array(w[: m + d + 1])
    nodes = np.linspace(-1.0, 1.0, d + 1)
    vander_inv = np.linalg.inv(np.vander(nodes, d + 1, increasing=True))
    h = poly_template(1, 1, d)
    vals = np.array([fvf_value(field, w[:m], h, [t, *w[m:]])[1][0] for t in nodes])
    want = np.concatenate([evaluate(field.xi, w[:m].tolist()), vander_inv @ vals])
    got = evaluate_points(functional._family_field(field, d).components, w)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def test_polynomial_family_reduction():
    x1 = FunctionalVectorField(
        1, 1, 1, 1,
        Program(1, [0.4 * intpow(Var(0), 2)]),
        Program(4, [Var(0) * Var(1) * Var(3) + 0.5 * Var(2)]),
    )
    x2 = FunctionalVectorField(
        1, 1, 1, 1,
        Program(1, [1.0 + 0.3 * Var(0)]),
        Program(4, [Var(3) - 0.2 * Var(1) * Var(3) + Var(0) * Var(2)]),
    )
    out = check_polynomial_family(x1, x2, 3, rng=np.random.default_rng(37), samples=5, tol=1e-7)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-7
