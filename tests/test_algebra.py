"""Structure-constant algebras: construction, arithmetic, homs, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilcalc.algebra import (
    WeilAlgebra,
    algebra_from_json,
    algebra_to_json,
    evaluate_analytic,
    exchange,
    hom_tensor,
    identity_hom,
    load_algebra,
    make_basic,
    make_hom,
    rho,
    save_algebra,
    subalgebra,
    sum_algebra,
    tensor,
    unit_embedding,
)
from weilcalc.errors import (
    AlgebraMismatch,
    DivisionByNilpotent,
    InvariantViolation,
    NotMultiplicative,
    NotUnital,
    ShapeMismatch,
    SpanNotClosed,
)

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
    e = DUAL.basis_element(1)
    assert (e * e).coeffs == (0.0, 0.0)


def test_truncated_shapes():
    assert T12.basis_labels == ("1", "x", "x^2")
    assert (T12.height, T12.width) == (2, 1)
    x = T12.basis_element(1)
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
    a = DD.basis_element(1)
    b = DD.basis_element(2)
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
    e, big_e = SUM.basis_element(1), SUM.basis_element(2)
    assert (e * big_e).coeffs == (0.0, 0.0, 0.0)
    assert (SUM.height, SUM.width) == (1, 2)


def test_width_defaults_to_minimal_generator_count():
    a = WeilAlgebra("t", T12.basis_labels, T12.structure)
    assert a.width == 1
    b = WeilAlgebra("dd", DD.basis_labels, DD.structure)
    assert b.width == 2


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


def test_same_structure_ignores_names():
    other = make_basic("dual")
    assert DUAL.same_structure(other)
    assert not DUAL.same_structure(T12)


# -- element arithmetic -----------------------------------------------------


def test_unit_and_scalar_mixing():
    x = T12.element([0.5, 1.0, 0.0])
    assert (x + 1).coeffs == (1.5, 1.0, 0.0)
    assert (2.0 * x).coeffs == (1.0, 2.0, 0.0)
    assert (x - x).coeffs == (0.0, 0.0, 0.0)
    assert (-x).coeffs == (-0.5, -1.0, -0.0)


def test_division_inverts_through_the_unit_part():
    num = DUAL.element([2.0, 3.0])
    den = DUAL.element([1.0, 1.0])
    assert (num / den).coeffs == (2.0, 1.0)
    # and the defining property holds in a three-step algebra
    a = T12.element([1.5, -0.3, 0.7])
    b = T12.element([2.0, 0.4, -1.1])
    prod = (a / b) * b
    assert np.allclose(prod.coeffs, a.coeffs, atol=1e-12)


def test_division_by_nilpotent_raises():
    with pytest.raises(DivisionByNilpotent):
        DUAL.unit() / DUAL.basis_element(1)


def test_analytic_primitives_match_taylor_expansion():
    h = math.exp(0.3)
    out = evaluate_analytic("exp", T12.element([0.3, 1.0, 0.0]))
    assert np.allclose(out.coeffs, [h, h, h / 2], atol=1e-14)
    out = evaluate_analytic("sin", T12.element([0.3, 1.0, 0.0]))
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
    return [a.element(row) for row in rows]


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


# -- homomorphisms -----------------------------------------------------------


def test_rho_then_unit_embedding_is_idempotent():
    x = T12.element([1.4, 2.0, -0.3])
    proj = unit_embedding(T12).compose(rho(T12))
    assert proj.apply(x).coeffs == (1.4, 0.0, 0.0)


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
    x = DD.element([1.0, 2.0, 3.0, 4.0])
    y = DD.element([0.0, 1.0, -1.0, 0.5])
    assert _close(mu.apply(x * y), mu.apply(x) * mu.apply(y), tol=1e-12)


# -- subalgebras --------------------------------------------------------------


def test_subalgebra_of_closed_span():
    # 1, e*1, e*e close up inside tensor(dual, dual)
    span = np.zeros((3, 4))
    span[0, 0] = 1.0
    span[1, 2] = 1.0
    span[2, 3] = 1.0
    sub, inc = subalgebra(DD, span, labels=("1", "u", "u2"), name="sub")
    assert sub.dim == 3
    assert sub.height == 1  # every product of span nilpotents vanishes
    assert inc.source is sub and inc.target is DD
    u = sub.basis_element(1)
    assert (u * u).coeffs == (0.0, 0.0, 0.0)  # (e*1)^2 = 0, u2 is not its square


def test_subalgebra_rejects_open_span():
    span = np.zeros((2, 4))
    span[0, 0] = 1.0
    span[1, 1] = 1.0
    span[1, 2] = 1.0  # (1*e + e*1)^2 = 2 e*e leaves the span
    with pytest.raises(SpanNotClosed) as err:
        subalgebra(DD, span)
    assert err.value.pair == (1, 1)


# -- serialization -------------------------------------------------------------


@pytest.mark.parametrize("a", STANDARD, ids=lambda a: a.name)
def test_json_round_trip(a):
    b = algebra_from_json(algebra_to_json(a))
    assert b.same_structure(a)
    assert b.basis_labels == a.basis_labels
    assert (b.width, b.height, b.unit_index) == (a.width, a.height, a.unit_index)


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


def test_json_revalidates_axioms():
    doc = algebra_to_json(DUAL)
    doc["structure"] = doc["structure"] + [[1, 1, 0, 1.0]]
    del doc["height"]
    with pytest.raises((InvariantViolation, ShapeMismatch)):
        algebra_from_json(doc)


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "t21.json"
    save_algebra(T21, path)
    again = load_algebra(path)
    assert again.same_structure(T21)
    assert again.basis_labels == T21.basis_labels
    raw = json.loads(path.read_text())
    assert raw["dim"] == 3
