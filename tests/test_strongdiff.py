"""Compatible pairs of second tangents, the strong difference, and brackets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilcalc import strongdiff
from weilcalc.algebra import WeilAlgebra, exchange, hom_tensor, make_basic, make_hom, sum_algebra
from weilcalc.errors import DomainError, IncompatiblePair, NotMultiplicative, ShapeMismatch
from weilcalc.exprs import Const, Var, format_expr, intpow, prim, simplify
from weilcalc.functor import flatten, lift_program, point_from_flat, transform
from weilcalc.programs import Program, VectorField, evaluate, random_poly_field
from weilcalc.reports import tally
from weilcalc.strongdiff import (
    ASecondPair,
    _bracket_slots,
    _dd_slots,
    _pair_gap,
    bracket,
    bracket_value,
    check_bracket_jacobian,
    check_exchange_square,
    check_projection_squares,
    check_sigma,
    check_tangent_projection_identities,
    dd_algebra,
    jacobian_bracket_deviation,
    k_map,
    make_S,
    pair_point,
    s_bundle,
    strong_diff,
)

DUAL = make_basic("dual")
DD = dd_algebra()
T12 = make_basic("truncated", 1, 2)
T21 = make_basic("truncated", 2, 1)
SUM = sum_algebra(DUAL, DUAL)
STANDARD = [DUAL, DD, T12, T21, SUM]


# -- the pair algebra ---------------------------------------------------------


def test_pair_algebra_shape():
    s = make_S()
    assert s.algebra.dim == 5
    assert s.algebra.basis_labels == ("1", "e1+E2", "e2+E1", "e1e2", "E1E2")
    assert s.algebra.width == 3
    assert s.algebra.height == 2
    assert s.ambient.dim == 7  # sum of two copies of tensor(dual, dual)
    assert s.inclusion.source is s.algebra


def test_pair_algebra_constants_are_the_one_product_b1_b2():
    # the unit rows and b1 b2 = b3 + b4: in sum(DD, DD), (e1+E2)(e2+E1) is
    # e1e2 + E1E2 and every other product of the span vanishes
    assert make_S().algebra.nonzeros() == [
        (0, 0, 0, 1.0), (0, 1, 1, 1.0), (0, 2, 2, 1.0), (0, 3, 3, 1.0), (0, 4, 4, 1.0),
        (1, 0, 1, 1.0), (1, 2, 3, 1.0), (1, 2, 4, 1.0),
        (2, 0, 2, 1.0), (2, 1, 3, 1.0), (2, 1, 4, 1.0),
        (3, 0, 3, 1.0), (4, 0, 4, 1.0),
    ]


def test_the_inclusion_refuses_a_pair_algebra_missing_one_constant():
    s = make_S()
    c = np.array(s.algebra.structure)
    c[1, 2, 4] = c[2, 1, 4] = 0.0  # b1 b2 = b3 alone is still a Weil algebra
    mutant = WeilAlgebra("S", s.algebra.basis_labels, c)
    with pytest.raises(NotMultiplicative) as err:
        make_hom(mutant, s.ambient, s.inclusion.matrix)
    assert err.value.pair in ((1, 2), (2, 1))


def test_sigma_matrix():
    s = s_bundle()
    want = np.array([[1.0, 0, 0, 0, 0], [0, 0, 0, 1.0, -1.0]])
    assert np.array_equal(s.sigma.matrix, want)
    assert s.sigma.target.basis_labels == ("1", "e")


def test_sigma_is_exact_on_basis_and_products():
    out = check_sigma()
    assert out["max_error"] == 0.0
    assert out["failures"] == []
    assert out["samples"] == 25


def test_strong_diff_reads_the_w_slots():
    vector = strong_diff(pair_point([2.0], [1.0], [3.0], [5.0], [4.0]))
    assert vector.algebra == DUAL
    assert np.array_equal(vector.coefficient_array(), [[2.0, 1.0]])  # w(X) - w(Y) = 5 - 4


# finite slots whose differences stay finite
_SLOT = st.floats(-1e300, 1e300)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_the_strong_difference_of_a_pair_point_is_w_x_minus_w_y(n, trials, data):
    slots = np.array(data.draw(st.lists(_SLOT, min_size=5 * n * trials, max_size=5 * n * trials)))
    slots = slots.reshape(5, n, trials)
    block = strong_diff(pair_point(*slots)).coefficient_array()
    assert block.shape == (n, 2, trials)
    assert block[:, 0].tobytes() == slots[0].tobytes()
    assert block[:, 1].tobytes() == (slots[3] - slots[4]).tobytes()
    for t in range(trials):
        one = strong_diff(pair_point(*slots[..., t].tolist())).coefficient_array()
        # a float run skips zero terms, so a zero there reads +0.0
        assert one.tobytes() == (block[..., t] + 0.0).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.sampled_from([np.inf, -np.inf, np.nan]), st.data())
def test_a_slot_that_is_not_finite_makes_bracket_value_raise(n, slot, bad, data):
    row = np.array(data.draw(st.lists(_SLOT, min_size=5 * n, max_size=5 * n)))
    broken = row.copy()
    broken[slot * n + data.draw(st.integers(0, n - 1))] = bad
    field = VectorField(n, Program(n, [Var(i) for i in range(n)]))
    with pytest.MonkeyPatch.context() as mp:
        # the pair's five slots straight from the arguments
        mp.setattr(strongdiff, "_bracket_slots", lambda x, y, args: [args[k * n : (k + 1) * n] for k in range(5)])
        bracket_value(field, field, row)
        with pytest.raises(DomainError):
            bracket_value(field, field, broken)
        with pytest.raises(DomainError):
            bracket_value(field, field, np.stack([row, broken]))
    with pytest.raises(DomainError):
        pair_point(*np.stack([row, broken], axis=-1).reshape(5, n, 2))


def test_second_tangent_point_round_trip():
    slots = ([2.0, -1.0], [1.0, 0.5], [3.0, 0.0], [5.0, 2.0])
    # a point over DD holds each coordinate as (base, v, u, w)
    back = _dd_slots(point_from_flat(DD, 2, [2.0, 3.0, 1.0, 5.0, -1.0, 0.0, 0.5, 2.0]))
    for got, want in zip(back, slots):
        assert np.array_equal(got, want)


def test_a_second_tangent_needs_numeric_coefficients():
    sym = point_from_flat(DD, 1, [Var(0), 1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        _dd_slots(sym)


def test_a_block_of_second_tangents_comes_from_column_coefficients():
    cols = np.arange(8.0).reshape(4, 2)
    block = _dd_slots(point_from_flat(DD, 1, list(cols)))
    for b in range(2):
        one = _dd_slots(point_from_flat(DD, 1, cols[:, b]))
        for got, want in zip(block, one):
            assert np.array_equal(got[:, b], want)


def test_incompatible_pairs_are_rejected():
    x = np.array([[0.0], [1.0], [2.0], [0.0]])
    y = np.array([[0.0], [1.0], [2.0], [0.0]])  # u/v not swapped
    assert _pair_gap(x, y) == 1.0
    # the same slots as real parts of a pair over the dual numbers
    with pytest.raises(IncompatiblePair):
        ASecondPair(DUAL, np.hstack([x, 0 * x])[None], np.hstack([y, 0 * y])[None])


def test_a_non_finite_slot_fails_membership_with_a_domain_error():
    # inf - inf is NaN, and max(0.0, nan) is 0.0: a gap taken first would pass
    for slot in range(4):
        slots = [[0.0], [1.0], [2.0], [0.0]]
        slots[slot] = [float("inf")]
        with pytest.raises(DomainError):
            _pair_gap(np.array(slots), np.array([slots[0], slots[2], slots[1], [0.0]]))
    for slot in range(5):
        slots = [[0.0], [1.0], [2.0], [0.0], [0.0]]
        slots[slot] = [float("inf")]
        with pytest.raises(DomainError):
            pair_point(*slots)
    arr = np.zeros((1, 4, 2))
    arr[0, 1, 0] = float("nan")
    with pytest.raises(DomainError):
        ASecondPair(make_basic("dual"), arr, arr[:, [0, 2, 1, 3]])


def test_a_symbolic_pair_point_is_not_checked_for_finite_slots():
    # the symbolic bracket builds its tree whatever constants it folds
    vector = strong_diff(pair_point([Var(0)], [float("inf")], [1.0], [2.0], [0.5]))
    assert vector.coords[0].coeffs[1] == 1.5


# -- brackets -----------------------------------------------------------------

X_SQ = VectorField(1, Program(1, [intpow(Var(0), 2)]))
X_ONE = VectorField(1, Program(1, [Const(1.0)]))


def test_composite_pair_collects_both_composites():
    assert _bracket_slots(X_SQ, X_ONE, [3.0]) == ([3.0], [9.0], [1.0], [0.0], [6.0])


def test_bracket_of_square_and_unit_fields():
    br = bracket(X_SQ, X_ONE)
    assert format_expr(simplify(br.components.exprs[0])) == "-2*x0"
    assert np.array_equal(bracket_value(X_SQ, X_ONE, [3.0]), [-6.0])


@pytest.mark.parametrize("spec", [("dual",), ("truncated", 1, 2)])
def test_prolongation_preserves_an_analytic_bracket_symbolically(spec):
    # [T^A X, T^A Y] - T^A [X, Y] simplifies to 0 only if the powers of
    # 2 + x0^2 that the log derivative leaves merge into one exponent
    a = make_basic(*spec)
    x0, x1 = Var(0), Var(1)
    x = VectorField(2, Program(2, [prim("log", Const(2.0) + x0 * x0), x0 * x1]))
    y = VectorField(2, Program(2, [x1, prim("sin", x0)]))
    lx, ly = (VectorField(2 * a.dim, lift_program(a, f.components)) for f in (x, y))
    lhs = bracket(lx, ly).components.exprs
    rhs = lift_program(a, bracket(x, y).components).exprs
    assert [format_expr(simplify(l - r)) for l, r in zip(lhs, rhs)] == ["0"] * 2 * a.dim


@pytest.mark.parametrize("entry", [bracket_value, jacobian_bracket_deviation])
def test_a_block_runs_each_field_tape_no_more_than_the_pair_needs(entry, monkeypatch):
    # X's and Y's values from float runs, then Y's slope along X and X's
    # slope along Y from dual runs; the Jacobian check reads X and Y off
    # the pair
    calls = {"evaluate": 0, "evaluate_dual": 0}
    for name in calls:
        def counted(*args, fn=getattr(strongdiff, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(strongdiff, name, counted)
    rng = np.random.default_rng(4)
    x = random_poly_field(rng, 2, deg=3)
    y = random_poly_field(rng, 2, deg=3)
    block = rng.uniform(-1.0, 1.0, size=(6, 2))
    got = entry(x, y, block)
    assert calls == {"evaluate": 2, "evaluate_dual": 2}
    assert np.array_equal(got, [entry(x, y, p) for p in block])


def test_bracket_with_itself_vanishes():
    rng = np.random.default_rng(2)
    field = random_poly_field(rng, 2, deg=3)
    for _ in range(5):
        at = rng.uniform(-1, 1, size=2)
        assert np.array_equal(bracket_value(field, field, at), [0.0, 0.0])


def test_bracket_is_antisymmetric_exactly():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = random_poly_field(rng, 3, deg=3)
        y = random_poly_field(rng, 3, deg=3)
        at = rng.uniform(-1, 1, size=3)
        lhs = bracket_value(x, y, at)
        rhs = bracket_value(y, x, at)
        assert np.array_equal(lhs, -rhs)


def test_symbolic_and_pointwise_brackets_agree():
    rng = np.random.default_rng(31)
    x = random_poly_field(rng, 2, deg=3)
    y = random_poly_field(rng, 2, deg=3)
    rendered = bracket(x, y)
    for _ in range(10):
        at = rng.uniform(-1, 1, size=2)
        sym = evaluate(rendered.components, list(at))
        assert np.allclose(sym, bracket_value(x, y, at), atol=1e-12)


def test_bracket_matches_finite_difference_jacobians():
    out = check_bracket_jacobian((1, 2), 4, rng=np.random.default_rng(10), samples=5, tol=1e-6)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-6


def test_bracket_rejects_mismatched_dimensions():
    with pytest.raises(ShapeMismatch):
        bracket(X_SQ, random_poly_field(np.random.default_rng(0), 2, deg=2))


# -- naturality squares --------------------------------------------------------


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_exchange_square_commutes_exactly(algebra):
    out = check_exchange_square(algebra, 2, rng=np.random.default_rng(4), samples=10, tol=1e-12)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-12


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_exchange_square_sees_u_and_v_exchanged_by_k_map(monkeypatch, algebra):
    # a k_map that puts u where v belongs on both sides: membership and the
    # strong difference are symmetric in u and v, and only the slot
    # comparison sees it
    original = strongdiff.k_map

    def exchanged(pair):
        return tuple(point_from_flat(DD, p.dim, list(p.coefficient_array()[:, [0, 2, 1, 3]].reshape(4 * p.dim, -1)))
                     for p in original(pair))

    monkeypatch.setattr(strongdiff, "k_map", exchanged)
    out = check_exchange_square(algebra, 2, rng=np.random.default_rng(4), samples=10, tol=1e-12)
    assert out["failures"] == [{"trial": t, "reason": "slots"} for t in range(10)]
    assert out["max_error"] == 0.0


def _break_y_base(monkeypatch, at):
    # a fault in reading the lifted pair: the y side (every second slot
    # read) gets its base slot moved at index `at`
    original = strongdiff._dd_slots
    calls = []

    def broken(p):
        base, u, v, w = original(p)
        calls.append(p)
        if len(calls) % 2 == 0:
            base = base.copy()
            base[at] += 0.5
        return base, u, v, w

    monkeypatch.setattr(strongdiff, "_dd_slots", broken)


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_exchange_square_names_each_trial_that_fails_membership(monkeypatch, algebra):
    # trial 3's lifted y side loses its base; the other trials still count
    _break_y_base(monkeypatch, (0, 3))
    out = check_exchange_square(algebra, 2, rng=np.random.default_rng(4), samples=10, tol=1e-12)
    assert out["failures"] == [{"trial": 3, "reason": "membership"}]
    assert out["samples"] == 10
    assert out["max_error"] == 0.0


def test_k_map_of_one_pair_still_requires_exact_membership(monkeypatch):
    _break_y_base(monkeypatch, 0)
    arr = np.random.default_rng(6).uniform(-1, 1, size=(2, 5, DUAL.dim))
    with pytest.raises(IncompatiblePair):
        k_map(ASecondPair(DUAL, arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]]))


def _exchange_square_per_trial(algebra, n, samples, rng):
    """The exchange square one trial at a time, on plain float coefficients:
    per trial the lifted slots, path one's (base, vector), path two's
    coefficients and the deviation."""
    bundle = s_bundle()
    da = algebra.dim
    sig_a = hom_tensor(bundle.sigma, algebra)
    exch = exchange(algebra, DUAL)
    rows = []
    for _ in range(samples):
        arr = rng.uniform(-1.0, 1.0, size=(n, 5, da))
        xs, ys = map(_dd_slots, k_map(ASecondPair(algebra, arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]])))
        path1 = strong_diff(pair_point(*xs, ys[3])).coefficient_array()
        p = point_from_flat(algebra, 5 * n, arr.reshape(-1))
        qa = transform(exch, transform(sig_a, flatten(p, algebra, bundle.algebra))).coefficient_array()
        dev = max(
            np.abs(path1[:, 0] - qa[:, :da].reshape(-1)).max(initial=0.0),
            np.abs(path1[:, 1] - qa[:, da : 2 * da].reshape(-1)).max(initial=0.0),
        )
        rows.append((np.stack(xs + ys), path1, qa, dev))
    return rows


@pytest.mark.parametrize("seed", [4, 21])
@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_exchange_square_block_matches_a_per_trial_loop_bit_for_bit(monkeypatch, algebra, seed):
    seen = {"transform": []}
    original_k_map, original_transform = strongdiff.k_map, strongdiff.transform

    def spy_k_map(pair):
        seen["lifted"] = original_k_map(pair)
        return seen["lifted"]

    def spy_transform(mu, p):
        seen["transform"].append(original_transform(mu, p))
        return seen["transform"][-1]

    monkeypatch.setattr(strongdiff, "k_map", spy_k_map)
    monkeypatch.setattr(strongdiff, "transform", spy_transform)
    samples = 12
    out = check_exchange_square(algebra, 2, rng=np.random.default_rng(seed), samples=samples, tol=0.0)
    monkeypatch.undo()
    ref = _exchange_square_per_trial(algebra, 2, samples, np.random.default_rng(seed))

    xs, ys = map(_dd_slots, seen["lifted"])
    slots = np.stack(xs + ys)
    # path one's sigma is the one transform onto the dual numbers
    (path1,) = [q.coefficient_array() for q in seen["transform"] if q.algebra == DUAL]
    qa = seen["transform"][-1].coefficient_array()  # path two's last step
    for t, (want_slots, want_path1, want_qa, _) in enumerate(ref):
        assert slots[..., t].tobytes() == want_slots.tobytes()
        assert path1[..., t].tobytes() == want_path1.tobytes()
        assert qa[..., t].tobytes() == want_qa.tobytes()
    want = tally((({"trial": t}, dev) for t, (*_, dev) in enumerate(ref)), 0.0)
    assert out == want


def test_k_map_lands_on_compatible_pairs():
    rng = np.random.default_rng(8)
    base = rng.uniform(-1, 1, size=(2, DUAL.dim))
    u = rng.uniform(-1, 1, size=(2, DUAL.dim))
    v = rng.uniform(-1, 1, size=(2, DUAL.dim))
    wx = rng.uniform(-1, 1, size=(2, DUAL.dim))
    wy = rng.uniform(-1, 1, size=(2, DUAL.dim))
    x = np.stack([base, u, v, wx], axis=1)
    y = np.stack([base, v, u, wy], axis=1)
    out = k_map(ASecondPair(DUAL, x, y))
    assert [p.algebra for p in out] == [DD, DD]
    assert _pair_gap(*map(_dd_slots, out)) == 0.0


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_k_map_puts_coefficient_a_of_coordinate_i_at_i_dim_plus_a(algebra):
    rng = np.random.default_rng(19)
    n, da = 3, algebra.dim
    arr = rng.uniform(-1, 1, size=(n, 5, da))
    x, y = arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]]
    out = k_map(ASecondPair(algebra, x, y))
    for lifted, side in zip(out, (x, y)):
        slots = _dd_slots(lifted)
        for i in range(n):
            for s in range(4):
                for a in range(da):
                    assert slots[s][i * da + a] == side[i, s, a]


def test_a_second_pair_requires_matching_sides():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(2, 4, DUAL.dim))
    y = np.array(x)
    y[:, 1, :] += 1.0  # u of y no longer equals v of x
    with pytest.raises(IncompatiblePair):
        ASecondPair(DUAL, x, y)


@pytest.mark.parametrize("a", [DUAL, T12], ids=lambda a: a.name)
@pytest.mark.parametrize("b", [DUAL, T12], ids=lambda a: a.name)
def test_projection_squares_commute_exactly(a, b):
    out = check_projection_squares(a, b, DUAL)
    assert out["max_error"] == 0.0
    out = check_projection_squares(a, b, T12)
    assert out["max_error"] == 0.0


@pytest.mark.parametrize("a", [DUAL, T12], ids=lambda a: a.name)
def test_tangent_projection_identities(a):
    out = check_tangent_projection_identities(a)
    assert out["max_error"] == 0.0
    assert out["failures"] == []
