"""Structure-constant algebras: construction, arithmetic, homs, serialization."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weilcalc import algebra
from weilcalc.algebra import (
    COUNTS,
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
    DomainError,
    InvariantViolation,
    NotMultiplicative,
    NotUnital,
    ShapeMismatch,
)
from weilcalc.exprs import Const, Expr, Var, intpow, node_to_json, postorder, prim
from weilcalc.functor import WeilPoint, flatten, lift, lift_program
from weilcalc.jets import P, Residues
from weilcalc.programs import Program, evaluate, program_dumps
from weilcalc.scalars import primitive_rule
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


def _dense_associativity_message(c):
    """The message of the dense check over all d^4 (i, j, k, m) at once, and
    the triples at which its largest gap is reached."""
    gap = np.abs(np.einsum("ijl,lkm->ijkm", c, c) - np.einsum("jkl,ilm->ijkm", c, c))
    i, j, k, _ = np.unravel_index(int(gap.argmax()), gap.shape)
    text = "multiplication is not associative at basis triple (%d,%d,%d) (dev %.3e)" % (i, j, k, gap.max())
    return text, {tuple(t[:3]) for t in np.argwhere(gap == gap.max())}


@pytest.mark.parametrize("at", [(1, 1, 2), (1, 2, 3), (2, 2, 4), (1, 3, 4)])
def test_an_associativity_defect_is_named_as_the_dense_check_names_it(at):
    c = np.array(make_basic("truncated", 1, 4).structure)
    i, j, k = at
    c[i, j, k] = c[j, i, k] = 1.0 + 1e-6
    text, _ = _dense_associativity_message(c)
    with pytest.raises(InvariantViolation) as err:
        WeilAlgebra("bad", make_basic("truncated", 1, 4).basis_labels, c)
    assert str(err.value) == text


def test_a_tied_largest_associativity_gap_is_named_at_its_first_triple():
    # commutativity ties the gap at (i, j, k) with the one at (k, j, i): the
    # first chunk to reach the largest gap names it, not the last
    c = np.array(make_basic("truncated", 1, 4).structure)
    c[1, 3, 4] = c[3, 1, 4] = 1.0 + 1e-6
    c[2, 2, 4] = 1.0 + 2.5e-6
    text, worst = _dense_associativity_message(c)
    assert len({t[0] for t in worst}) > 1
    with pytest.raises(InvariantViolation) as err:
        WeilAlgebra("bad", make_basic("truncated", 1, 4).basis_labels, c)
    assert str(err.value) == text


def test_a_dim_64_algebra_builds_in_bounded_memory_and_compiles_nothing():
    code = (
        "import resource\n"
        "from weilcalc.algebra import COUNTS, make_basic\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "a = make_basic('truncated', 1, 63)\n"
        "assert a.dim == 64 and a._product is None and a._divide is False and a._series is None\n"
        "assert COUNTS['product_compiles'] == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(algebra.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 150 * 1024  # kB: the dense d^4 check took about 550 MB


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


def _presented(a):
    """a on the basis f_0 = 1, f_1 = e_1, f_i = e_i + e_(i-1): an integer
    change of nilpotent basis that spreads each product over many outputs."""
    f = np.eye(a.dim) + np.diag([0.0] + [1.0] * (a.dim - 2), -1)
    f[1, 0] = 0.0
    c = np.einsum("ip,jq,pqr,rk->ijk", f, f, a.structure, np.round(np.linalg.inv(f)))
    return WeilAlgebra("%s, presented" % a.name, a.basis_labels, c), f


# dim 7, and its outputs have up to 20 entries: an output with more than
# dim entries starts at the marker E, and its lines add without a test
PRESENTED, _BASIS = _presented(make_basic("truncated", 1, 6))
PRODUCT_ALGEBRAS = KERNEL_ALGEBRAS + [PRESENTED]


def test_the_presented_basis_is_truncated_1_6():
    make_hom(PRESENTED, make_basic("truncated", 1, 6), _BASIS.T)
    per_output = np.count_nonzero(PRESENTED.structure, axis=(0, 1))
    assert per_output.max() > PRESENTED.dim
    assert set(PRESENTED.structure.flat) > {0.0, 1.0, -1.0}


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
    """A value's exact form: its type, the sign of a zero, inf, nan and the
    order of terms all count."""
    if isinstance(v, AlgebraElement):
        return tuple(_bits(c) for c in v.coeffs)
    if isinstance(v, Expr):
        return json.dumps(node_to_json(v))  # writes -0.0 with its sign
    if isinstance(v, np.ndarray):
        # a NaN entry's sign counts no more than a scalar NaN's, below
        if v.dtype.kind == "f":
            v = np.where(np.isnan(v), np.nan, v)
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, Residues):
        return "residues", v.v.dtype.str, v.v.tobytes()
    # not a NaN's sign: CPython's specialized float add may return the
    # other operand's NaN when both are NaN
    return type(v).__name__, "nan" if math.isnan(v) else struct.pack("<d", v)


def _outcome(thunk):
    """The exact form of a value, or the type of the error raised instead."""
    try:
        return _bits(thunk())
    except TypeError as err:
        return type(err)


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
    # residues mix with ints only: a float zero is skipped, and a structure
    # constant other than 1 raises TypeError on both sides
    "residues": st.one_of(
        st.sampled_from([0.0, -0.0, 0, 1, 5]),
        st.lists(st.integers(0, P - 1), min_size=3, max_size=3).map(
            lambda v: Residues(np.array(v, dtype=np.int64))
        ),
    ),
    # numpy float64 is a float subclass: its zeros are skipped as well
    "float64": st.one_of(
        _SCALAR, st.sampled_from([np.float64(0.0), np.float64(-0.0)]), _SCALAR.map(np.float64)
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRODUCT_ALGEBRAS), st.sampled_from(sorted(_CARRIERS)), st.data())
def test_products_are_bit_identical_to_the_flat_walk(a, carrier, data):
    coeff = _CARRIERS[carrier]
    x, y = (AlgebraElement(a, data.draw(st.lists(coeff, min_size=a.dim, max_size=a.dim))) for _ in "xy")
    with np.errstate(all="ignore"):  # inf * 0 in a column is the point here
        assert _outcome(lambda: x * y) == _outcome(lambda: _flat_mul(x, y))


def test_a_columns_nan_entries_compare_without_their_sign():
    # a draw that once failed the test above: output 4 sums plain floats to
    # a NaN at -inf + inf, then more NaNs, and CPython's float add may keep
    # either NaN, so the column added next carries either sign
    col = np.array([-1.30976351, math.nan, -1.30976351])
    x = AlgebraElement(PRESENTED, [0.0, 0.0, 0.5, 2.00001, math.nan, col, col])
    y = AlgebraElement(PRESENTED, [0.1455, math.inf, -2.086, 0.0, -1.45e-55, 7.5e-124, -math.inf])
    with np.errstate(all="ignore"):
        assert _outcome(lambda: x * y) == _outcome(lambda: _flat_mul(x, y))
    # every other bit still counts
    assert _bits(np.array([1.0, -math.nan])) == _bits(np.array([1.0, math.nan]))
    assert _bits(np.array([1.0, -0.0])) != _bits(np.array([1.0, 0.0]))
    assert _bits(np.array([math.nan, 1.0])) != _bits(np.array([math.nan, math.nextafter(1.0, 2.0)]))
    assert _bits(np.array([0, 1])) != _bits(np.array([0.0, 1.0]))


@pytest.mark.parametrize("a", PRODUCT_ALGEBRAS, ids=lambda a: a.name)
def test_products_of_trees_keep_every_operand_order(a):
    # a tree records the order of each product and sum, and of each
    # structure constant against its term
    x = AlgebraElement(a, [Var(i) for i in range(a.dim)])
    y = AlgebraElement(a, [Var(a.dim + j) for j in range(a.dim)])
    assert _bits(x * y) == _bits(_flat_mul(x, y))


def test_the_product_is_compiled_once_per_algebra_value():
    a = make_basic("truncated", 2, 2)
    memoized = a.product()
    # an equal algebra built again is another value, with its own product
    twin = algebra_from_json(algebra_to_json(a))
    assert twin == a and twin is not a
    before = COUNTS["product_compiles"]
    x = y = AlgebraElement(twin, [0.5 + i for i in range(twin.dim)])
    z = AlgebraElement(a, x.coeffs)
    for _ in range(3):
        y, z = y * x, z * AlgebraElement(a, x.coeffs)
    assert COUNTS["product_compiles"] - before == 1
    assert twin.product() is twin.product() is not memoized
    assert a.product() is memoized
    assert _bits(y) == _bits(z)


def test_a_late_first_term_is_assigned_not_added():
    # an output with more than dim entries adds to the marker E without a
    # test; a product whose only term is its last entry must still be it
    late = {}
    for i, j, k, c in PRESENTED.nonzeros():
        late.setdefault(k, []).append((i, j, c))
    k, entries = max(late.items(), key=lambda item: len(item[1]))
    i, j, c = entries[-1]
    assert len(entries) > PRESENTED.dim and c not in (0.0, 1.0)
    for u, v in [(1.5, -2.0), (Var(0), Var(1))]:
        x, y = ([0.0] * PRESENTED.dim for _ in "xy")
        x[i], y[j] = u, v
        got = AlgebraElement(PRESENTED, x) * AlgebraElement(PRESENTED, y)
        want = [0.0] * PRESENTED.dim
        for i2, j2, k2, c2 in PRESENTED.nonzeros():
            if (i2, j2) == (i, j):
                want[k2] = u * v * c2
        assert _bits(got) == _bits(AlgebraElement(PRESENTED, want))


def _source_lines(build):
    """The number of lines of the source that build() generates."""
    return _source(build).count("\n") + 1


def _source(build):
    """The source that build() generates."""
    sources = []

    def keep(source, *args):
        sources.append(source)
        return compile(source, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "compile", keep, raising=False)
        build()
    return sources[0]


def test_the_product_source_grows_linearly_in_the_nonzeros():
    # one line per entry, plus at most three per (i, j) pair and output
    for a in PRODUCT_ALGEBRAS + LARGE + [make_basic("truncated", 1, 40)]:
        nnz = len(a.nonzeros())
        pairs = len({(i, j) for i, j, _, _ in a.nonzeros()})
        assert nnz < _source_lines(partial(algebra._compile_product, a.dim, a.nonzeros())) <= nnz + 2 * pairs + 3 * a.dim + 8


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


# -- the series on coefficient tuples against element-by-element series ------
#
# The references below run analytic, division by an element and powers as
# sums and products of whole elements through the public operators, one
# element per step; the engine runs them on coefficient tuples.  Both must
# do the same float operations in the same order.


def _ref_nil(x):
    coeffs = list(x.coeffs)
    coeffs[x.algebra.unit_index] = 0.0
    return AlgebraElement(x.algebra, coeffs)


def _ref_is_zero(x):
    return all(isinstance(c, float) and c == 0.0 for c in x.coeffs)


def _ref_over(x, b0):
    return AlgebraElement(x.algebra, [c if isinstance(c, float) and c == 0.0 else c / b0 for c in x.coeffs])


def _ref_analytic(x, name, shift=0):
    a0 = x.coeffs[x.algebra.unit_index]
    rule, y = primitive_rule(a0)
    out = x.algebra.unit(rule(y, name, shift))
    nil = npow = _ref_nil(x)
    for j in range(1, x.algebra.height + 1):
        if _ref_is_zero(npow):
            break
        out = out + npow * (rule(y, name, shift + j) * (1.0 / math.factorial(j)))
        if j < x.algebra.height:
            npow = npow * nil
    return out


_PLAIN_DIV = AlgebraElement.__truediv__


def _ref_div(x, y):
    if not isinstance(y, AlgebraElement):
        return _PLAIN_DIV(x, y)
    b0 = y.coeffs[x.algebra.unit_index]
    if algebra._zero_real(b0):
        raise DivisionByNilpotent("division by zero real part")
    nil = _ref_nil(y)
    q = _ref_over(x, b0)
    before = COUNTS["algebra_products"]
    for _ in range(0 if _ref_is_zero(nil) else x.algebra.height):
        q = _ref_over(x - q * nil, b0)
    # a division counts one product, whatever its rounds take
    COUNTS["algebra_products"] = before + (not _ref_is_zero(nil))
    return q


def _ref_pow(x, k):
    if k < 0:
        if algebra._zero_real(x.coeffs[x.algebra.unit_index]):
            raise DivisionByNilpotent("zero real part raised to a negative power")
        return _ref_pow(_ref_div(x.algebra.unit(), x), -k)
    acc, base = x.algebra.unit(), x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base if k > 1 else base
        k >>= 1
    return acc


def _series_outcome(thunk):
    """The coefficient bytes and product count of a result, or the class of
    the error raised instead."""
    before = COUNTS["algebra_products"]
    try:
        got = thunk()
    except (ArithmeticError, DomainError, DivisionByNilpotent) as err:
        return type(err), COUNTS["algebra_products"] - before
    return np.array(got.coeffs, dtype=float).tobytes(), COUNTS["algebra_products"] - before


SERIES_ALGEBRAS = STANDARD + [make_basic("truncated", 1, 12), make_basic("truncated", 3, 3), T12_SCALED]
# sparse: most coefficients are an exact zero of either sign
_SPARSE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2, 2, allow_nan=False))
_REAL = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(0.25, 3).flatmap(lambda v: st.sampled_from([v, -v])))


def _sparse_element(data, a):
    coeffs = data.draw(st.lists(_SPARSE, min_size=a.dim, max_size=a.dim))
    coeffs[a.unit_index] = data.draw(_REAL)
    return AlgebraElement(a, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES_ALGEBRAS), st.data())
def test_division_is_the_element_by_element_fixed_point_bit_for_bit(a, data):
    x, y = _sparse_element(data, a), _sparse_element(data, a)
    assert _series_outcome(lambda: x / y) == _series_outcome(lambda: _ref_div(x, y))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES_ALGEBRAS), st.integers(-4, 6), st.data())
def test_powers_are_the_element_by_element_square_and_multiply_bit_for_bit(a, k, data):
    x = _sparse_element(data, a)
    assert _series_outcome(lambda: x**k) == _series_outcome(lambda: _ref_pow(x, k))


def test_sqrt_at_a_zero_real_part_is_zero_only_without_a_nilpotent_part():
    for a in SERIES_ALGEBRAS:
        zero = AlgebraElement(a, [0.0] * a.dim)
        assert _series_outcome(lambda: zero.analytic("sqrt")) == _series_outcome(lambda: _ref_analytic(zero, "sqrt"))
        assert zero.analytic("sqrt").coeffs == (0.0,) * a.dim
        nil = [0.0] * a.dim
        nil[1] = 1.0
        with pytest.raises(DomainError):
            AlgebraElement(a, nil).analytic("sqrt")


def _taylor_style_program():
    """R^2 -> R^2 with every primitive, quotients and integer powers."""
    x, y = Var(0), Var(1)
    return Program(2, [
        0.3 * x * y + prim("sin", x + y) - 0.25 * prim("exp", x) + prim("log", 1 + intpow(y, 2)) / (2 + intpow(x, 2)),
        intpow(x - y, 3) + prim("cos", x) * prim("sqrt", 2 + intpow(y, 2)) - intpow(1 + intpow(x, 2), -2) / 3,
    ])


def test_a_symbolic_lift_renders_as_the_element_by_element_series(monkeypatch):
    a = make_basic("truncated", 2, 2)
    f = _taylor_style_program()
    fast = program_dumps(lift_program(a, f))
    monkeypatch.setattr(AlgebraElement, "analytic", _ref_analytic)
    monkeypatch.setattr(AlgebraElement, "__truediv__", _ref_div)
    monkeypatch.setattr(AlgebraElement, "__pow__", _ref_pow)
    assert fast == program_dumps(lift_program(a, f))


# -- division in one sweep against the fixed point ----------------------------


def _skew_t12():
    """truncated(1,2) on the basis 1, x, y = x + x^2: x*x = y - x, so the
    support graph of a division has a loop and no order."""
    c = np.zeros((3, 3, 3))
    c[0] = c[:, 0] = np.eye(3)
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        c[i, j, 1], c[i, j, 2] = -1.0, 1.0
    return WeilAlgebra("truncated(1,2) on 1, x, x+x^2", ("1", "x", "x+x^2"), c)


T12_SKEW = _skew_t12()
# dual numbers whose unit is basis vector 1
DUALSWAP = WeilAlgebra("dualswap", ("e", "1"), DUAL.structure[::-1, ::-1, ::-1], unit_index=1)
SWEEP_ALGEBRAS = SERIES_ALGEBRAS + [
    DUALSWAP, sum_algebra(make_basic("truncated", 1, 3), make_basic("truncated", 2, 2)), make_S().algebra,
]
FIXED_POINT_ALGEBRAS = [T12_SKEW, PRESENTED]


def test_the_sweep_applies_exactly_where_the_basis_admits_an_order():
    assert all(a.divide() is not None for a in SWEEP_ALGEBRAS + LARGE)
    assert all(a.divide() is None for a in FIXED_POINT_ALGEBRAS)
    make_hom(T12_SKEW, T12, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
    # a chain longer than the height: the fixed point's last round has not
    # reached its end, so no sweep stands in for it
    assert algebra._compile_divide(3, 0, T12.nonzeros(), 2) is not None
    assert algebra._compile_divide(3, 0, T12.nonzeros(), 1) is None


def _dag_bits(v, table):
    """_bits with each tree interned in table as (op, leaf, child indices):
    equal indices are equal trees, and a shared subtree is read once, where
    its printed form repeats it at every use, exponentially in the rounds."""
    if isinstance(v, AlgebraElement):
        return tuple(_dag_bits(c, table) for c in v.coeffs)
    if not isinstance(v, Expr):
        return _bits(v)
    ids = {}
    for node in postorder(v):
        leaf = _bits(node.c) if type(node) is Const else getattr(node, "i", getattr(node, "k", None))
        ids[node] = table.setdefault((node.op, leaf, tuple(ids[c] for c in node.children)), len(table))
    return "tree", ids[v]


def _counted_outcome(thunk, table):
    """The exact form of a value (`_dag_bits` over table) and the products
    it counted, or the class of the error raised instead."""
    before = COUNTS["algebra_products"]
    try:
        got = _dag_bits(thunk(), table)
    except (ArithmeticError, DomainError, DivisionByNilpotent) as err:
        got = type(err)
    return got, COUNTS["algebra_products"] - before


# ints too: an int zero over a negative real part would keep its sign only
# if an empty sum were not subtracted
_SWEEP_CARRIERS = {**_CARRIERS, "int": st.one_of(_SCALAR, st.integers(-2, 2))}


def _carrier_element(data, a, carrier):
    coeffs = data.draw(st.lists(_SWEEP_CARRIERS[carrier], min_size=a.dim, max_size=a.dim))
    return AlgebraElement(a, coeffs)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(SWEEP_ALGEBRAS + FIXED_POINT_ALGEBRAS),
    st.sampled_from(["float", "int", "column", "expr"]),
    st.data(),
)
def test_the_sweep_is_the_fixed_point_on_every_carrier(a, carrier, data):
    # specials, zeros of either sign, trees and columns: bit-equal coefficients
    # and one product per solve, or the same exception class
    x, y = _carrier_element(data, a, carrier), _carrier_element(data, a, carrier)
    table = {}
    with np.errstate(all="ignore"):
        assert _counted_outcome(lambda: x / y, table) == _counted_outcome(lambda: _ref_div(x, y), table)


def _kernel_builds(monkeypatch) -> list:
    """The list that the kernel compilers append their names to, in order."""
    built = []

    def counted(compile_kernel):
        def run(*args):
            built.append(compile_kernel.__name__)
            return compile_kernel(*args)
        return run

    for name in ("_compile_product", "_compile_divide", "_compile_series"):
        monkeypatch.setattr(algebra, name, counted(getattr(algebra, name)))
    return built


def test_building_an_algebra_compiles_no_kernel_and_the_first_division_one(monkeypatch):
    built = _kernel_builds(monkeypatch)
    a = WeilAlgebra("t", make_basic("truncated", 2, 3).basis_labels, make_basic("truncated", 2, 3).structure)
    assert built == []
    x = AlgebraElement(a, [1.0 + i for i in range(a.dim)])
    y = AlgebraElement(a, [0.5 - i for i in range(a.dim)])
    q = x / y
    assert built == ["_compile_divide"]
    assert _bits(x / y) == _bits(q) and a.divide() is a.divide()
    assert built == ["_compile_divide"]
    # a divisor with no nilpotent part needs no kernel
    b = WeilAlgebra("t", a.basis_labels, a.structure)
    x = AlgebraElement(b, x.coeffs)
    assert _bits(x / b.unit(2.0)) == _bits(x / 2.0) and built == ["_compile_divide"]


def test_the_divide_source_grows_linearly_in_the_nonzeros():
    # two lines per entry with a nilpotent factor, a few per output
    for a in KERNEL_ALGEBRAS + LARGE + [make_basic("truncated", 1, 40), DUALSWAP]:
        entries = sum(j != a.unit_index for _, j, _, _ in a.nonzeros())
        lines = _source_lines(partial(algebra._compile_divide, a.dim, a.unit_index, a.nonzeros(), a.height))
        assert 2 * entries < lines <= 2 * entries + 5 * a.dim + 8


@pytest.mark.parametrize("kind", ["truncated(1,63)", "tensor(truncated(1,7),truncated(1,7))"])
def test_a_division_over_a_dim_64_algebra_is_the_fixed_point_in_bounded_time(kind):
    t17 = make_basic("truncated", 1, 7)
    a = make_basic("truncated", 1, 63) if kind.startswith("truncated") else tensor(t17, t17)
    assert a.dim == 64
    rng = np.random.default_rng(3)
    x, y = (AlgebraElement(a, rng.uniform(-1.0, 1.0, size=a.dim).tolist()) for _ in "xy")
    start = time.perf_counter()
    q = x / y  # the first division over a: compiles the kernel
    assert time.perf_counter() - start < 10.0
    assert _bits(q) == _bits(_ref_div(x, y))


# -- the compiled series against the element-by-element series -----------------


def _unit_drift_t13():
    """truncated(1,3) where x*x has the unit component 1e-13, within
    STRUCT_TOL: n^2 may have a real part, so the unit is in its support."""
    t13 = make_basic("truncated", 1, 3)
    c = np.array(t13.structure)
    c[1, 1, 0] = 1e-13
    return WeilAlgebra("truncated(1,3), x*x = x^2 + 1e-13", t13.basis_labels, c)


T13_DRIFT = _unit_drift_t13()
ANALYTIC_ALGEBRAS = SERIES_ALGEBRAS + [
    DUALSWAP,
    T12_SKEW,
    T13_DRIFT,
    sum_algebra(make_basic("truncated", 1, 3), make_basic("truncated", 2, 2)),
    tensor(make_basic("truncated", 1, 3), make_basic("truncated", 1, 3)),
]
# log's 12th derivative overflows to inf at a real part near 5e-26
_ANALYTIC_REAL = st.one_of(_REAL, st.sampled_from([5e-26, 8e-26, 1e-25, math.inf, -math.inf, math.nan]))
_ANALYTIC_NIL = st.one_of(_SPARSE, _SPECIAL)
_TREES = st.one_of(st.builds(Var, st.integers(0, 2)), st.builds(Const, st.floats(-4, 4)))
# (real part, nilpotent coefficient) per carrier; a nested element stays out
# of the real part, where the element-by-element series refuses it (below)
_ANALYTIC_CARRIERS = {
    "float": (_ANALYTIC_REAL, _ANALYTIC_NIL),
    "column": (
        st.one_of(_ANALYTIC_REAL, st.lists(_ANALYTIC_REAL, min_size=3, max_size=3).map(np.array)),
        st.one_of(_ANALYTIC_NIL, st.lists(_SCALAR, min_size=3, max_size=3).map(np.array)),
    ),
    "expr": (st.one_of(_ANALYTIC_REAL, _TREES), st.one_of(_ANALYTIC_NIL, _TREES)),
    "nested": (
        _ANALYTIC_REAL,
        st.one_of(_ANALYTIC_NIL, st.lists(_SCALAR, min_size=2, max_size=2).map(partial(AlgebraElement, DUAL))),
    ),
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ANALYTIC_ALGEBRAS),
    st.sampled_from(sorted(_ANALYTIC_CARRIERS)),
    st.sampled_from(["exp", "sin", "cos", "log", "sqrt"]),
    st.integers(0, 2),
    st.data(),
)
def test_analytic_is_the_element_by_element_series_bit_for_bit(a, carrier, name, shift, data):
    # specials, zeros of either sign, trees, columns and elements: bit-equal
    # coefficients and products, or the same exception class; a zero real
    # part under log or sqrt raises, and must raise alike
    real, nil = _ANALYTIC_CARRIERS[carrier]
    coeffs = data.draw(st.lists(nil, min_size=a.dim, max_size=a.dim))
    coeffs[a.unit_index] = data.draw(real)
    x = AlgebraElement(a, coeffs)
    table = {}
    with np.errstate(all="ignore"):
        got = _counted_outcome(lambda: x.analytic(name, shift), table)
        assert got == _counted_outcome(lambda: _ref_analytic(x, name, shift), table)


def test_a_derivative_that_overflows_to_inf_reaches_every_coefficient():
    # log's 12th derivative at 5e-26 is 11!/x^12, past the float range: the
    # series adds 0.0*inf, a NaN, to every coefficient outside n^12's support
    x = AlgebraElement(make_basic("truncated", 1, 12), [5e-26, 1.0] + [0.0] * 11)
    got = x.analytic("log")
    assert got.coeffs[12] == -math.inf and all(math.isnan(c) for c in got.coeffs[:12])
    assert _counted_outcome(lambda: got, {})[0] == _counted_outcome(lambda: _ref_analytic(x, "log"), {})[0]
    # an inf derivative at every step, over every basis: the coefficients
    # that n^1 reached hold an inf that a later 0.0*inf turns into a NaN
    for a in ANALYTIC_ALGEBRAS:
        for name, real in [("exp", math.inf), ("sqrt", math.inf), ("log", 5e-26)]:
            coeffs = [0.5 + 0.25 * i for i in range(a.dim)]
            coeffs[a.unit_index] = real
            x = AlgebraElement(a, coeffs)
            with np.errstate(all="ignore"):
                assert _counted_outcome(lambda: x.analytic(name), {}) == _counted_outcome(
                    lambda: _ref_analytic(x, name), {})


def test_the_series_is_compiled_on_the_first_analytic_and_the_product_at_the_first_power(monkeypatch):
    built = _kernel_builds(monkeypatch)
    t23 = make_basic("truncated", 2, 3)
    a = WeilAlgebra("t", t23.basis_labels, t23.structure)
    assert built == [] and a._series is None
    # a zero nilpotent part stops the series before its first power, as it
    # stopped the loop before its first product
    constant = AlgebraElement(a, [0.5] + [0.0] * (a.dim - 1))
    assert _bits(constant.analytic("exp")) == _bits(_ref_analytic(constant, "exp"))
    assert built == ["_compile_series"]
    x = AlgebraElement(a, [0.5 + 0.25 * i for i in range(a.dim)])
    y = x.analytic("sin")
    assert built == ["_compile_series", "_compile_product"]
    assert _bits(x.analytic("sin")) == _bits(y) and a.series() is a.series()
    assert built == ["_compile_series", "_compile_product"]
    # dual numbers have no second power: their series never asks for a product
    d = WeilAlgebra("d", DUAL.basis_labels, DUAL.structure)
    AlgebraElement(d, [0.5, 1.0]).analytic("exp")
    assert built[2:] == ["_compile_series"] and d._product is None


def test_the_series_source_inlines_no_more_entries_than_the_product_holds():
    # steps are inlined fewest entries first within len(nonzeros); each
    # step adds a few lines per coefficient
    for a in ANALYTIC_ALGEBRAS + PRODUCT_ALGEBRAS + LARGE + [make_basic("truncated", 1, 40), make_S().algebra]:
        source = _source(partial(algebra._compile_series, a.dim, a.unit_index, a.nonzeros(), a.height, a.product))
        inlined = sum(1 for line in source.splitlines() if re.match(r"\s*q\d+ = (?!None$|E$)", line))
        assert inlined <= len(a.nonzeros())
        assert source.count("\n") + 1 <= 3 * inlined + (4 * a.dim + 8) * a.height + 3 * a.dim + 8


@pytest.mark.parametrize("kind", ["truncated(1,63)", "tensor(truncated(1,7),truncated(1,7))"])
def test_the_first_analytic_over_a_dim_64_algebra_is_bounded_in_time_and_memory(kind):
    code = (
        "import json, resource, sys, time\n"
        "import numpy as np\n"
        "from weilcalc.algebra import AlgebraElement, make_basic, tensor\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "t17 = make_basic('truncated', 1, 7)\n"
        "a = make_basic('truncated', 1, 63) if sys.argv[1].startswith('truncated') else tensor(t17, t17)\n"
        "x = AlgebraElement(a, np.random.default_rng(3).uniform(-1.0, 1.0, size=a.dim).tolist())\n"
        "start = time.perf_counter()\n"
        "y = x.analytic('exp')  # compiles the series and the product\n"
        "took = time.perf_counter() - start\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(json.dumps([took, grew, [c.hex() for c in y.coeffs]]))\n"
    )
    src = str(Path(algebra.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, kind], capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    took, grew, coeffs = json.loads(run.stdout)
    t17 = make_basic("truncated", 1, 7)
    a = make_basic("truncated", 1, 63) if kind.startswith("truncated") else tensor(t17, t17)
    x = AlgebraElement(a, np.random.default_rng(3).uniform(-1.0, 1.0, size=a.dim).tolist())
    assert coeffs == [c.hex() for c in _ref_analytic(x, "exp").coeffs]
    assert took < 0.5
    assert grew < 150 * 1024  # kB above import, the build's own too


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "log", "sqrt"])
def test_analytic_over_nested_coefficients_is_the_tensor_product_lift(name):
    # a dual number whose coefficients are truncated(1,2) elements is a point
    # of tensor(dual, truncated(1,2)) in flatten's layout; the element-by-element
    # series refused it, as a Taylor term multiplied elements of two algebras
    inner = [AlgebraElement(T12, [0.7, -0.4, 1.1]), AlgebraElement(T12, [0.5, 0.9, -0.3])]
    x = AlgebraElement(DUAL, inner)
    with pytest.raises(AlgebraMismatch):
        _ref_analytic(x, name)

    def flat(el):
        coords = [AlgebraElement(DUAL, [c.coeffs[k] for c in el.coeffs]) for k in range(T12.dim)]
        return flatten(WeilPoint(DUAL, coords), DUAL, T12).coords[0]

    got, want = flat(x.analytic(name)), flat(x).analytic(name)
    assert want.algebra == tensor(DUAL, T12)
    assert np.allclose(got.coeffs, want.coeffs, rtol=0.0, atol=1e-12)


# -- the width and the sweep against the walks that once computed them --------


def _ref_width(a):
    """dim N - dim N^2 from a product of its own, as the width was computed
    apart from the height."""
    rest = [i for i in range(a.dim) if i != a.unit_index]
    if not rest:
        return 0
    n = np.eye(a.dim)[rest]
    return len(rest) - algebra._row_basis(algebra._products(n, n, a.structure)).shape[0]


def _ref_depth(dim, unit, nonzeros, height):
    """The longest chain into each output of the division's support graph,
    by the fixed point the sweep ran on its own; None if it has not settled
    within height + 1 rounds, for a cycle or a chain longer than height."""
    sources = [[] for _ in range(dim)]
    for i, j, k, _ in nonzeros:
        if j != unit:
            sources[k].append(i)
    depth = [0] * dim
    for _ in range(height + 1):
        longer = [max([depth[i] + 1 for i in sources[k]], default=0) for k in range(dim)]
        if longer == depth:
            return depth
        depth = longer
    return None


def _reference_algebras():
    """Every algebra this module builds, those of the verify suites and the
    CLI tests, and the dim-64 ones, each once."""
    t17 = make_basic("truncated", 1, 7)
    return list(dict.fromkeys(
        PRODUCT_ALGEBRAS + LARGE + SWEEP_ALGEBRAS + FIXED_POINT_ALGEBRAS + ANALYTIC_ALGEBRAS
        + [make_basic("truncated", k, r) for k in (1, 2, 3) for r in range(5)]
        + [tensor(DD, DD), tensor(DUAL, T12), tensor(DUAL, T21), tensor(make_S().algebra, DUAL)]
        + [sum_algebra(DD, DD), sum_algebra(DUAL, T12), _presented(make_basic("truncated", 1, 6))[0]]
        + [make_basic("truncated", 1, 40), make_basic("truncated", 1, 63), tensor(t17, t17)]
    ))


def test_the_width_and_the_sweep_are_those_of_the_walks_they_replaced():
    # the width from the first ideal power; the sweep where the fixed point
    # settles within the height, in the order of its chain depths
    algebras = _reference_algebras()
    assert {DUALSWAP, T12_SKEW, PRESENTED, T13_DRIFT} <= set(algebras) and len(algebras) > 35
    for a in algebras:
        assert a.width == _ref_width(a), a.name
        for height in range(a.height + 2):
            depth = _ref_depth(a.dim, a.unit_index, a.nonzeros(), height)
            if depth is None:
                assert algebra._compile_divide(a.dim, a.unit_index, a.nonzeros(), height) is None, (a.name, height)
                continue
            source = _source(partial(algebra._compile_divide, a.dim, a.unit_index, a.nonzeros(), height))
            order = [int(k) for k in re.findall(r"^ *q(\d+) = over\(", source, re.M)]
            assert order == sorted(range(a.dim), key=lambda k: (depth[k], k)), (a.name, height)


# -- an element divided by a number rounds as the float run -------------------


@pytest.mark.parametrize("a", [DUAL, make_basic("truncated", 2, 2)], ids=lambda a: a.name)
@pytest.mark.parametrize("divisor", [3.0, -3.0, 7.0, -0.1])
def test_an_element_over_a_number_has_the_float_runs_real_part(a, divisor):
    f = Program(1, [Var(0) / divisor])
    xs = np.random.default_rng(5).uniform(-10.0, 10.0, size=1000).tolist() + [0.0, -0.0]
    lifted = lift(a, f)
    for x in xs:
        coeffs = list(a.generator_elements()[0].coeffs)
        coeffs[a.unit_index] = x
        point = WeilPoint(a, [AlgebraElement(a, coeffs)])
        got = lifted(point).coords[0].coeffs[a.unit_index]
        assert struct.pack("<d", got) == struct.pack("<d", evaluate(f, [x])[0])


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


def _einsum_hom_defect(source, target, m):
    """NotMultiplicative's pair and %.3e deviation, by the dense einsum."""
    lhs = np.einsum("ijs,ts->ijt", source.structure, m)
    rhs = np.einsum("pi,qj,pqt->ijt", m, m, target.structure)
    dev = np.abs(lhs - rhs)
    worst = np.unravel_index(np.argmax(dev), dev.shape)
    return (int(worst[0]), int(worst[1])), "%.3e" % dev[worst]


def test_the_hom_check_names_the_pair_and_deviation_the_dense_einsum_names():
    # the invalid homs the other tests build, then random linear maps that
    # keep the unit, and a valid basis change off by 1e-6
    s = make_S()
    c = np.array(s.algebra.structure)
    c[1, 2, 4] = c[2, 1, 4] = 0.0
    cases = [
        (DUAL, DUAL, np.array([[1.0, 1.0], [0.0, 0.0]])),
        (WeilAlgebra("S", s.algebra.basis_labels, c), s.ambient, s.inclusion.matrix),
        (PRESENTED, make_basic("truncated", 1, 6), _BASIS.T + 1e-6 * np.eye(7, k=1)),
    ]
    rng = np.random.default_rng(11)
    for source, target in [(T12, T12), (DD, DD), (T21, make_basic("truncated", 2, 2)), (PRESENTED, PRESENTED),
                           (make_basic("truncated", 1, 12), make_basic("truncated", 3, 3))]:
        m = rng.uniform(-1.0, 1.0, size=(target.dim, source.dim))
        m[:, source.unit_index] = np.eye(target.dim)[target.unit_index]
        cases.append((source, target, m))
    for source, target, m in cases:
        with pytest.raises(NotMultiplicative) as err:
            make_hom(source, target, m)
        assert (err.value.pair, "%.3e" % err.value.deviation) == _einsum_hom_defect(source, target, m)


@pytest.mark.parametrize("kind", ["truncated(1,63)", "tensor(truncated(1,7),truncated(1,7))"])
def test_a_hom_over_a_dim_64_algebra_is_checked_in_bounded_time(kind):
    t17 = make_basic("truncated", 1, 7)
    a = make_basic("truncated", 1, 63) if kind.startswith("truncated") else tensor(t17, t17)
    start = time.perf_counter()
    make_hom(a, a, np.eye(a.dim))
    assert time.perf_counter() - start < 0.1  # the dense einsum took about 1.6 s


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
