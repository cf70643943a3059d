"""Compatible pairs of second tangents, the strong difference, and brackets."""

import numpy as np
import pytest

from weilcalc import strongdiff
from weilcalc.algebra import WeilAlgebra, exchange, hom_tensor, make_basic, make_hom, sum_algebra
from weilcalc.errors import DomainError, IncompatiblePair, NotMultiplicative, ShapeMismatch
from weilcalc.exprs import Const, Var, format_expr, intpow, prim, simplify
from weilcalc.functor import flatten, lift_program, point_from_flat, transform
from weilcalc.programs import Program, VectorField, evaluate, random_poly_field
from weilcalc.reports import tally
from weilcalc.strongdiff import (
    ASecondPair,
    SPair,
    SecondTangent,
    bracket,
    bracket_value,
    check_bracket_jacobian,
    check_exchange_square,
    check_projection_squares,
    check_sigma,
    check_tangent_projection_identities,
    compatible,
    _composite_pair,
    dd_algebra,
    jacobian_bracket_deviation,
    k_map,
    make_S,
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
    x = SecondTangent([2.0], [1.0], [3.0], [5.0])
    y = SecondTangent([2.0], [3.0], [1.0], [4.0])
    base, vec = strong_diff(SPair(x, y))
    assert np.array_equal(base, [2.0])
    assert np.array_equal(vec, [1.0])  # w(X) - w(Y) = 5 - 4


def test_second_tangent_point_round_trip():
    x = SecondTangent([2.0, -1.0], [1.0, 0.5], [3.0, 0.0], [5.0, 2.0])
    # a point over DD holds each coordinate as (base, v, u, w)
    back = SecondTangent.from_point(point_from_flat(DD, 2, [2.0, 3.0, 1.0, 5.0, -1.0, 0.0, 0.5, 2.0]))
    for slot in ("base", "u", "v", "w"):
        assert np.array_equal(getattr(back, slot), getattr(x, slot))


def test_a_second_tangent_needs_numeric_coefficients():
    sym = point_from_flat(DD, 1, [Var(0), 1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        SecondTangent.from_point(sym)


def test_a_block_of_second_tangents_comes_from_column_coefficients():
    cols = np.arange(8.0).reshape(4, 2)
    block = SecondTangent.from_point(point_from_flat(DD, 1, list(cols)))
    for b in range(2):
        one = SecondTangent.from_point(point_from_flat(DD, 1, cols[:, b]))
        for got, want in zip(block.slots(), one.slots()):
            assert np.array_equal(got[:, b], want)


def test_incompatible_pairs_are_rejected():
    x = SecondTangent([0.0], [1.0], [2.0], [0.0])
    y = SecondTangent([0.0], [1.0], [2.0], [0.0])  # u/v not swapped
    assert not compatible(x, y)
    with pytest.raises(IncompatiblePair):
        SPair(x, y)


def test_a_non_finite_slot_fails_membership_with_a_domain_error():
    # inf - inf is NaN, and max(0.0, nan) is 0.0: a gap taken first would pass
    for slot in range(4):
        slots = [[0.0], [1.0], [2.0], [0.0]]
        slots[slot] = [float("inf")]
        x = SecondTangent(*slots)
        y = SecondTangent(slots[0], slots[2], slots[1], [0.0])
        with pytest.raises(DomainError):
            compatible(x, y)
        with pytest.raises(DomainError):
            SPair(x, y)
    arr = np.zeros((1, 4, 2))
    arr[0, 1, 0] = float("nan")
    with pytest.raises(DomainError):
        ASecondPair(make_basic("dual"), arr, arr[:, [0, 2, 1, 3]])


# -- brackets -----------------------------------------------------------------

X_SQ = VectorField(1, Program(1, [intpow(Var(0), 2)]))
X_ONE = VectorField(1, Program(1, [Const(1.0)]))


def test_composite_pair_collects_both_composites():
    pair = _composite_pair(X_SQ, X_ONE, [3.0], None)
    assert np.array_equal(pair.coords5(), [[3.0, 9.0, 1.0, 0.0, 6.0]])


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
    # with the identity slot order k_map builds each side from arr.reshape(-1),
    # so u and v trade places; membership and the strong difference are
    # symmetric in u and v, and only the slot comparison sees it
    monkeypatch.setattr(strongdiff, "_SLOT_TO_DD", (0, 1, 2, 3))
    out = check_exchange_square(algebra, 2, rng=np.random.default_rng(4), samples=10, tol=1e-12)
    assert out["failures"] == [{"trial": t, "reason": "slots"} for t in range(10)]
    assert out["max_error"] == 0.0


def _break_y_base(monkeypatch, at):
    # a fault inside k_map: the y side (every second slot read) gets its
    # base slot moved at index `at`
    original = SecondTangent.from_point.__func__
    calls = []

    def broken(cls, p):
        t = original(cls, p)
        calls.append(t)
        if len(calls) % 2 == 0:
            base = t.base.copy()
            base[at] += 0.5
            t = cls(base, t.u, t.v, t.w)
        return t

    monkeypatch.setattr(SecondTangent, "from_point", classmethod(broken))


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
        lifted = k_map(ASecondPair(algebra, arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]]))
        base1, vec1 = strong_diff(lifted)
        p = point_from_flat(algebra, 5 * n, arr.reshape(-1))
        qa = transform(exch, transform(sig_a, flatten(p, algebra, bundle.algebra))).coefficient_array()
        dev = max(
            np.abs(base1 - qa[:, :da].reshape(-1)).max(initial=0.0),
            np.abs(vec1 - qa[:, da : 2 * da].reshape(-1)).max(initial=0.0),
        )
        rows.append((np.stack(lifted.x.slots() + lifted.y.slots()), np.stack([base1, vec1]), qa, dev))
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

    lifted = seen["lifted"]
    slots = np.stack(lifted.x.slots() + lifted.y.slots())
    paths = np.stack(strong_diff(lifted))
    qa = seen["transform"][-1].coefficient_array()  # path two's last step
    for t, (want_slots, want_path1, want_qa, _) in enumerate(ref):
        assert slots[..., t].tobytes() == want_slots.tobytes()
        assert paths[..., t].tobytes() == want_path1.tobytes()
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
    assert isinstance(out, SPair)


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_k_map_puts_coefficient_a_of_coordinate_i_at_i_dim_plus_a(algebra):
    rng = np.random.default_rng(19)
    n, da = 3, algebra.dim
    arr = rng.uniform(-1, 1, size=(n, 5, da))
    x, y = arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]]
    out = k_map(ASecondPair(algebra, x, y))
    for lifted, side in ((out.x, x), (out.y, y)):
        slots = (lifted.base, lifted.u, lifted.v, lifted.w)
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
