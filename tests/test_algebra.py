"""Structure-constant algebras: construction, arithmetic, homs, serialization."""

import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weilcalc.algebra import (
    MAX_DIM,
    AlgebraElement,
    WeilAlgebra,
    _products,
    algebra_from_json,
    algebra_to_json,
    apply_matrix,
    exchange,
    hom_tensor,
    identity_hom,
    make_basic,
    make_hom,
    save_algebra,
    sum_algebra,
    tensor,
)
from weilcalc.errors import (
    AlgebraMismatch,
    DivisionByNilpotent,
    InvariantViolation,
    NotMultiplicative,
    NotUnital,
    ShapeMismatch,
)
from weilcalc.exprs import Const, Expr, Var, node_to_json
from weilcalc.functor import WeilPoint
from weilcalc.strongdiff import make_S

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)
T21 = make_basic("truncated", 2, 1)
DD = tensor(DUAL, DUAL)
SUM = sum_algebra(DUAL, DUAL)
STANDARD = [DUAL, DD, T12, T21, SUM]
# dimensions 15, 20 and 16: the sizes a lifted point's columns multiply in
LARGE = [
    make_basic("truncated", 2, 4),
    make_basic("truncated", 3, 3),
    tensor(sum_algebra(DUAL, T12), DD),
]


# -- construction -----------------------------------------------------------


def test_dual_shape():
    assert DUAL.dim == 2
    assert DUAL.basis_labels == ("1", "e")
    assert DUAL.width == 1
    assert DUAL.height == 1
    e = AlgebraElement(DUAL, [0.0, 1.0])
    assert (e * e).coeffs == (0.0, 0.0)


def test_truncated_shapes():
    assert T12.basis_labels == ("1", "x", "x^2")
    assert (T12.height, T12.width) == (2, 1)
    x = AlgebraElement(T12, [0.0, 1.0, 0.0])
    assert (x * x).coeffs == (0.0, 0.0, 1.0)
    assert (x * x * x).coeffs == (0.0, 0.0, 0.0)

    assert T21.basis_labels == ("1", "x1", "x2")
    assert (T21.height, T21.width) == (1, 2)
    x1, x2 = T21.generator_elements()
    assert (x1 * x2).coeffs == (0.0, 0.0, 0.0)


def test_tensor_shape():
    assert DD.dim == 4
    assert DD.basis_labels == ("1", "1*e", "e*1", "e*e")
    assert (DD.height, DD.width) == (2, 2)
    a = AlgebraElement(DD, [0.0, 1.0, 0.0, 0.0])
    b = AlgebraElement(DD, [0.0, 0.0, 1.0, 0.0])
    assert (a * b).coeffs == (0.0, 0.0, 0.0, 1.0)
    assert (a * a).coeffs == (0.0,) * 4


def test_nested_tensor_labels_stay_distinct():
    # compound factor labels are parenthesized, otherwise distinct basis
    # triples of a twice-iterated product would print identically
    big = tensor(DD, DD)
    assert big.dim == 16
    assert len(set(big.basis_labels)) == 16


def test_sum_kills_cross_products():
    assert SUM.dim == 3
    assert SUM.basis_labels == ("1", "e", "E")
    e, big_e = AlgebraElement(SUM, [0.0, 1.0, 0.0]), AlgebraElement(SUM, [0.0, 0.0, 1.0])
    assert (e * big_e).coeffs == (0.0, 0.0, 0.0)
    assert (SUM.height, SUM.width) == (1, 2)


def test_width_defaults_to_minimal_generator_count():
    a = WeilAlgebra("t", T12.basis_labels, T12.structure)
    assert a.width == 1
    b = WeilAlgebra("dd", DD.basis_labels, DD.structure)
    assert b.width == 2


@pytest.mark.parametrize("algebra", [T12, DD, make_S().algebra, make_basic("truncated", 2, 3)], ids=lambda a: a.name)
def test_pairwise_products_match_the_three_operand_einsum(algebra):
    rng = np.random.default_rng(5)
    c = algebra.structure
    a, b = rng.normal(size=(3, algebra.dim)), rng.normal(size=(4, algebra.dim))
    want = np.einsum("ai,bj,ijk->abk", a, b, c).reshape(-1, algebra.dim)
    assert np.allclose(_products(a, b, c), want, rtol=1e-13, atol=1e-13)


def test_constructor_rejects_noncommutative_table():
    c = np.array(DD.structure, copy=True)
    c[1][2][3] = 2.0  # leave c[2][1][3] at 1
    with pytest.raises(InvariantViolation, match=r"c\[1,2,3\]"):
        WeilAlgebra("bad", DD.basis_labels, c)


def test_constructor_rejects_nonassociative_table():
    c = np.zeros((3, 3, 3))
    c[0, :, :] = np.eye(3)
    c[:, 0, :] = np.eye(3)
    c[1][1][2] = 1.0
    c[2][2][1] = 1.0  # x2*x2 = x1 while x1*x1 = x2: (x1 x1) x1 != x1 (x1 x1) fails nilpotency too
    c[2][1][1] = 1.0
    c[1][2][1] = 1.0
    with pytest.raises(InvariantViolation):
        WeilAlgebra("bad", ("1", "x1", "x2"), c)


def test_constructor_rejects_non_nilpotent_ideal():
    c = np.array(DUAL.structure, copy=True)
    c[1][1][0] = 1.0  # e*e = 1 is a unit component
    with pytest.raises(InvariantViolation, match="unit component"):
        WeilAlgebra("bad", ("1", "e"), c)


def test_constructor_rejects_broken_unit_row():
    c = np.array(DUAL.structure, copy=True)
    c[0][1][1] = 2.0  # 1*e = 2e
    with pytest.raises(InvariantViolation):
        WeilAlgebra("bad", ("1", "e"), c)


def test_generator_elements_require_registration():
    bare = WeilAlgebra("bare", ("1", "e"), DUAL.structure)
    with pytest.raises(InvariantViolation):
        bare.generator_elements()


def test_algebras_with_equal_tables_do_not_mix():
    # equality is of values, names and generators included
    other = WeilAlgebra("eps", DUAL.basis_labels, DUAL.structure, generators=DUAL.generators)
    assert other != DUAL
    assert WeilAlgebra("dual", DUAL.basis_labels, DUAL.structure) != DUAL
    # truncated(1,1) has the dual numbers' table, yet its elements are not duals
    t11 = make_basic("truncated", 1, 1)
    assert np.array_equal(t11.structure, DUAL.structure)
    with pytest.raises(AlgebraMismatch):
        AlgebraElement(t11, [1.0, 2.0]) * AlgebraElement(DUAL, [3.0, 4.0])
    with pytest.raises(AlgebraMismatch):
        WeilPoint(DUAL, [AlgebraElement(t11, [1.0, 2.0])])
    assert WeilAlgebra("dual", DUAL.basis_labels, DUAL.structure, generators=DUAL.generators) == DUAL


# -- element arithmetic -----------------------------------------------------


def test_unit_and_scalar_mixing():
    x = AlgebraElement(T12, [0.5, 1.0, 0.0])
    assert (x + 1).coeffs == (1.5, 1.0, 0.0)
    assert (2.0 * x).coeffs == (1.0, 2.0, 0.0)
    assert (x - x).coeffs == (0.0, 0.0, 0.0)
    assert (-x).coeffs == (-0.5, -1.0, -0.0)


def test_division_inverts_through_the_unit_part():
    num = AlgebraElement(DUAL, [2.0, 3.0])
    den = AlgebraElement(DUAL, [1.0, 1.0])
    assert (num / den).coeffs == (2.0, 1.0)
    # and the defining property holds in a three-step algebra
    a = AlgebraElement(T12, [1.5, -0.3, 0.7])
    b = AlgebraElement(T12, [2.0, 0.4, -1.1])
    prod = (a / b) * b
    assert np.allclose(prod.coeffs, a.coeffs, atol=1e-12)


def test_division_by_nilpotent_raises():
    with pytest.raises(DivisionByNilpotent):
        DUAL.unit() / AlgebraElement(DUAL, [0.0, 1.0])


def test_analytic_primitives_match_taylor_expansion():
    h = math.exp(0.3)
    out = AlgebraElement(T12, [0.3, 1.0, 0.0]).analytic("exp")
    assert np.allclose(out.coeffs, [h, h, h / 2], atol=1e-14)
    out = AlgebraElement(T12, [0.3, 1.0, 0.0]).analytic("sin")
    want = [math.sin(0.3), math.cos(0.3), -math.sin(0.3) / 2]
    assert np.allclose(out.coeffs, want, atol=1e-14)


def test_cross_algebra_arithmetic_is_rejected():
    with pytest.raises(AlgebraMismatch):
        DUAL.unit() + T12.unit()


# -- algebra laws, property based --------------------------------------------

coeffs = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


@st.composite
def element_triples(draw):
    a = draw(st.sampled_from(STANDARD + LARGE))
    rows = draw(
        st.lists(
            st.lists(coeffs, min_size=a.dim, max_size=a.dim),
            min_size=3,
            max_size=3,
        )
    )
    return [AlgebraElement(a, row) for row in rows]


def _close(u, v, tol=1e-9):
    return np.allclose([float(c) for c in u.coeffs], [float(c) for c in v.coeffs], atol=tol)


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_multiplication_is_commutative(els):
    x, y, _ = els
    assert _close(x * y, y * x)


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_multiplication_is_associative(els):
    x, y, z = els
    assert _close((x * y) * z, x * (y * z), tol=1e-8)


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_multiplication_distributes(els):
    x, y, z = els
    assert _close(x * (y + z), x * y + x * z, tol=1e-8)


@settings(max_examples=30, deadline=None)
@given(element_triples())
def test_unit_is_neutral(els):
    x = els[0]
    assert _close(x * x.algebra.unit(), x, tol=0.0)


@settings(max_examples=30, deadline=None)
@given(element_triples())
def test_nilpotent_part_dies_by_the_height(els):
    x = els[0]
    n = x - float(x.coeffs[x.algebra.unit_index])
    acc = n
    for _ in range(x.algebra.height):
        acc = acc * n
    assert max(abs(float(c)) for c in acc.coeffs) <= 1e-6


# -- the product kernel against one walk over every structure nonzero ------------

def _scaled_t12():
    """truncated(1,2) in the basis 1, 2x, 3x^2: (2x)(2x) = (4/3)(3x^2)."""
    c = np.zeros((3, 3, 3))
    c[0] = c[:, 0] = np.eye(3)
    c[1, 1, 2] = 4.0 / 3.0
    return WeilAlgebra("truncated(1,2) on 1, 2x, 3x^2", ("1", "2x", "3x^2"), c)


T12_SCALED = _scaled_t12()
KERNEL_ALGEBRAS = STANDARD + [
    make_basic("truncated", 1, 12),
    tensor(make_basic("truncated", 1, 3), make_basic("truncated", 1, 3)),
    T12_SCALED,
]


def test_the_scaled_basis_presents_truncated_1_2():
    # the basis change 1, x, x^2 -> 1, 2x, 3x^2 is a hom onto truncated(1,2)
    make_hom(T12_SCALED, T12, np.diag([1.0, 2.0, 3.0]))
    assert T12_SCALED.structure[1, 1, 2] == 4.0 / 3.0
    assert (T12_SCALED.height, T12_SCALED.width) == (2, 1)


def _flat_mul(x, y):
    """x * y as the reference walk over all of nonzeros(), both operands
    tested for a float zero at every entry."""
    out = [None] * x.algebra.dim
    ca, cb = x.coeffs, y.coeffs
    for i, j, k, c in x.algebra.nonzeros():
        u, v = ca[i], cb[j]
        if (isinstance(u, float) and u == 0.0) or (isinstance(v, float) and v == 0.0):
            continue
        term = u * v
        if c != 1.0:
            term = term * c
        out[k] = term if out[k] is None else out[k] + term
    return AlgebraElement(x.algebra, [0.0 if v is None else v for v in out])


def _bits(v):
    """A value's exact form: -0.0, inf and nan count, as does term order."""
    if isinstance(v, AlgebraElement):
        return tuple(_bits(c) for c in v.coeffs)
    if isinstance(v, Expr):
        return json.dumps(node_to_json(v))
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    return float.hex(v)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_SCALAR = st.one_of(_SPECIAL, st.just(0.0), st.floats(-4, 4))
_CARRIERS = {
    "float": _SCALAR,
    "expr": st.one_of(
        _SCALAR, st.builds(Var, st.integers(0, 2)), st.builds(Const, st.floats(-4, 4))
    ),
    "column": st.one_of(
        _SCALAR, st.lists(_SCALAR, min_size=3, max_size=3).map(np.array)
    ),
    "nested": st.one_of(
        _SCALAR, st.lists(_SCALAR, min_size=2, max_size=2).map(partial(AlgebraElement, DUAL))
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), st.sampled_from(sorted(_CARRIERS)), st.data())
def test_products_are_bit_identical_to_the_flat_walk(a, carrier, data):
    coeff = _CARRIERS[carrier]
    x, y = (AlgebraElement(a, data.draw(st.lists(coeff, min_size=a.dim, max_size=a.dim))) for _ in "xy")
    with np.errstate(all="ignore"):  # inf * 0 in a column is the point here
        assert _bits(x * y) == _bits(_flat_mul(x, y))


def test_rows_regroup_the_nonzeros_by_left_index():
    for a in KERNEL_ALGEBRAS:
        flat = [(i, j, k, c) for i, row in enumerate(a.rows()) for j, k, c in row]
        assert flat == a.nonzeros()


@pytest.mark.parametrize("a", STANDARD, ids=lambda a: a.name)
@pytest.mark.parametrize("kind", ["float", "column"])
def test_a_column_on_the_left_of_an_element_defers_to_the_element(a, kind):
    # numpy must not build an object array of elements out of col * e
    col = np.array([1.0, -2.5, 0.75])
    coeffs = [1.5 - 0.5 * i for i in range(a.dim)]
    if kind == "column":
        coeffs = [np.array([c, c + 0.25, -c]) for c in coeffs]
    e = AlgebraElement(a, coeffs)
    for got, want in [
        (col * e, e * col),
        (col + e, e + col),
        (col - e, (-e) + col),
        (col / e, e.algebra.unit(col) / e),
    ]:
        assert isinstance(got, AlgebraElement)
        assert _bits(got) == _bits(want)


# -- division without forming 1/b -------------------------------------------------

_REAL_PARTS = st.floats(1.0, 4.0).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), st.data())
def test_a_quotient_times_its_divisor_gives_the_dividend(a, data):
    num = AlgebraElement(a, data.draw(st.lists(coeffs, min_size=a.dim, max_size=a.dim)))
    den = data.draw(st.lists(st.floats(-1, 1), min_size=a.dim, max_size=a.dim))
    den[a.unit_index] = data.draw(_REAL_PARTS)
    den = AlgebraElement(a, den)
    q = num / den
    scale = max([1.0] + [abs(c) for c in q.coeffs])
    gap = max(abs(u - v) for u, v in zip((q * den).coeffs, num.coeffs))
    assert gap <= 1e-12 * scale


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_FINITE, _FINITE, _FINITE.filter(lambda v: v != 0.0), _FINITE)
@example(0.0, 1.0, 2.225e-311, 1.0)  # 1/b overflows for this subnormal real part
@example(3.0, -1.0, 2.225e-311, 0.5)
def test_dual_quotients_are_the_quotient_rule_bit_for_bit(a0, a1, b0, b1):
    q = a0 / b0
    # the element stops at a/b0 when b1 is 0, where the rule would form inf*0
    assume(math.isfinite(q) or b1 != 0.0)
    want = (q, (a1 - q * b1) / b0)
    got = (AlgebraElement(DUAL, [a0, a1]) / AlgebraElement(DUAL, [b0, b1])).coeffs
    # a float zero is not divided, so a zero may keep its sign
    for g, w in zip(got, want):
        assert float.hex(g) == float.hex(w) or g == w == 0.0


# -- homomorphisms -----------------------------------------------------------


def test_exchange_swaps_tensor_slots():
    mu = exchange(DUAL, DUAL)
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(mu.matrix, want)


def test_hom_tensor_of_identity_is_identity():
    mu = hom_tensor(identity_hom(DUAL), DUAL)
    assert np.allclose(mu.matrix, np.eye(4))


def test_make_hom_rejects_non_unital_maps():
    with pytest.raises(NotUnital):
        make_hom(DUAL, DUAL, np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_make_hom_rejects_non_multiplicative_maps():
    # e has square zero, so it cannot land on the unit
    with pytest.raises(NotMultiplicative) as err:
        make_hom(DUAL, DUAL, np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert err.value.pair == (1, 1)


def test_hom_composes_pointwise():
    mu = exchange(DUAL, DUAL)
    x = AlgebraElement(DD, [1.0, 2.0, 3.0, 4.0])
    y = AlgebraElement(DD, [0.0, 1.0, -1.0, 0.5])

    def apply(el):
        return AlgebraElement(mu.target, apply_matrix(mu.matrix, el.coeffs))

    assert _close(apply(x * y), apply(x) * apply(y), tol=1e-12)


# -- serialization -------------------------------------------------------------


@pytest.mark.parametrize("a", STANDARD + [make_S().algebra], ids=lambda a: a.name)
def test_json_round_trip(a):
    b = algebra_from_json(algebra_to_json(a))
    assert b == a
    assert b.basis_labels == a.basis_labels
    assert (b.width, b.height, b.unit_index) == (a.width, a.height, a.unit_index)
    # an equal value, so the memoized constructors hand back what a built
    assert b == a and hash(b) == hash(a)
    assert tensor(b, DUAL) is tensor(a, DUAL) and tensor(DUAL, b) is tensor(DUAL, a)


def test_an_algebra_keeps_its_own_read_only_structure():
    table = np.array(DUAL.structure)
    a = WeilAlgebra("dual", ("1", "e"), table, generators=((0.0, 1.0),))
    table[1, 1, 1] = 5.0
    assert a == DUAL and a.height == 1
    with pytest.raises(ValueError):
        a.structure[1, 1, 1] = 5.0
    with pytest.raises(ValueError):
        exchange(DUAL, T12).matrix[0, 0] = 2.0
    assert exchange(DUAL, T12) is exchange(make_basic("dual"), T12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constructor_rejects_non_finite_constants(bad):
    c = np.array(DUAL.structure)
    c[1, 1, 1] = bad
    with pytest.raises(ShapeMismatch, match="finite"):
        WeilAlgebra("d", ("1", "e"), c)
    with pytest.raises(ShapeMismatch, match="finite"):
        WeilAlgebra("d", ("1", "e"), DUAL.structure, generators=((0.0, bad),))


def test_constructors_refuse_a_dim_past_max_dim():
    with pytest.raises(ShapeMismatch, match="below 64"):
        make_basic("truncated", 1, MAX_DIM)
    with pytest.raises(ShapeMismatch, match="dim 66"):
        make_basic("truncated", 2, 10)
    with pytest.raises(ShapeMismatch, match="dim 65"):
        WeilAlgebra("big", ["b%d" % i for i in range(MAX_DIM + 1)], np.zeros((1, 1, 1)))


def test_json_rejects_a_constant_past_the_float_range():
    doc = algebra_to_json(DUAL)
    doc["structure"][-1][3] = 10**400
    with pytest.raises(ShapeMismatch, match="float range"):
        algebra_from_json(doc)


def test_json_rejects_unknown_keys():
    doc = algebra_to_json(DUAL)
    doc["flavor"] = "sour"
    with pytest.raises(ShapeMismatch):
        algebra_from_json(doc)


def test_json_rejects_malformed_structure_entries():
    doc = algebra_to_json(DUAL)
    doc["structure"] = [[0, 0, 0]]
    with pytest.raises(ShapeMismatch):
        algebra_from_json(doc)


def test_json_rejects_duplicate_structure_entries():
    doc = algebra_to_json(DUAL)
    doc["structure"] = doc["structure"] + [doc["structure"][0]]
    with pytest.raises(ShapeMismatch):
        algebra_from_json(doc)


def test_json_rejects_stale_height():
    doc = algebra_to_json(T12)
    doc["height"] = 7
    with pytest.raises(ShapeMismatch):
        algebra_from_json(doc)


def test_json_rejects_stale_width():
    doc = algebra_to_json(T12)
    doc["width"] = 7
    with pytest.raises(ShapeMismatch, match="width"):
        algebra_from_json(doc)


@pytest.mark.parametrize(
    "key, value",
    [("dim", True), ("unit_index", False), ("width", True), ("height", True)],
)
def test_json_rejects_a_boolean_for_an_integer_field(key, value):
    doc = algebra_to_json(DUAL if key != "dim" else make_basic("reals"))
    doc[key] = value
    with pytest.raises(ShapeMismatch):
        algebra_from_json(doc)


def test_json_rejects_a_boolean_structure_index():
    # numpy reads a bool index as a mask, which would write nothing
    doc = {"dim": 1, "name": "r", "basis": ["1"], "unit_index": 0, "structure": [[False, 0, False, 1]]}
    with pytest.raises(ShapeMismatch, match="indices"):
        algebra_from_json(doc)


def test_json_revalidates_axioms():
    doc = algebra_to_json(DUAL)
    doc["structure"] = doc["structure"] + [[1, 1, 0, 1.0]]
    del doc["height"]
    with pytest.raises((InvariantViolation, ShapeMismatch)):
        algebra_from_json(doc)


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "t21.json"
    save_algebra(T21, path)
    again = algebra_from_json(json.loads(path.read_text()))
    assert again == T21
    assert again.basis_labels == T21.basis_labels
    raw = json.loads(path.read_text())
    assert raw["dim"] == 3
