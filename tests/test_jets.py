"""Jet groups, their actions on algebras, frames, and field prolongation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weilcalc import jets
from weilcalc._monomials import degree, monomials
from weilcalc.algebra import AlgebraElement, identity_hom, make_basic, make_hom
from weilcalc.errors import (
    InvariantViolation,
    NonProjectable,
    ShapeMismatch,
    SingularLinearPart,
)
from weilcalc.exprs import Const, Var, intpow
from weilcalc.jets import (
    JetGroupElement,
    P,
    Residues,
    canonical_H,
    check_bracket_preserved,
    check_classical_prolongation,
    check_frame_prolong,
    check_jet_group,
    flow_frame_oracle,
    frame_evaluate,
    frame_prolong,
    frame_to_flat,
    g_field_prolong,
    identity_jet,
    jet_compose,
    jet_invert,
    jet_triple,
    make_triple,
    residue_mismatch,
)
from weilcalc import programs
from weilcalc.programs import (
    Program,
    VectorField,
    evaluate,
    jacobian_oracle,
    random_poly_field,
    random_poly_program,
)
from weilcalc.reports import tally


def _floats(g):
    return np.array(g.coeffs, dtype=float)


# -- the reference draws: one jet at a time, coefficient by coefficient ----------


def _random_jet(rng, m, r, rejected=None):
    """Float jet with linear part kept comfortably invertible; each linear
    part it draws again is appended to `rejected`."""
    while True:
        lin = np.eye(m) + 0.4 * rng.uniform(-1.0, 1.0, size=(m, m))
        if abs(np.linalg.det(lin)) > 0.3:
            break
        if rejected is not None:
            rejected.append(lin)
    coeffs = []
    for i in range(m):
        row = []
        for alpha in monomials(m, r, 1):
            if degree(alpha) == 1:
                row.append(float(lin[i][alpha.index(1)]))
            else:
                row.append(float(rng.uniform(-0.5, 0.5)))
        coeffs.append(row)
    return JetGroupElement(m, r, coeffs)


def _random_rational_jet(rng, m, r, rejected=None):
    """Fraction-coefficient jet; group arithmetic on it stays exact.  Each
    candidate with a singular linear part is appended to `rejected`."""
    while True:
        coeffs = []
        for i in range(m):
            row = []
            for alpha in monomials(m, r, 1):
                base = 2 if degree(alpha) == 1 and alpha[i] == 1 else 0
                row.append(Fraction(base * 3 + int(rng.integers(-2, 3)), int(rng.integers(1, 4)) * 3))
            coeffs.append(row)
        jet = JetGroupElement(m, r, coeffs)
        if _exact_det(jet.linear_part()) != 0:
            return jet
        if rejected is not None:
            rejected.append(jet)


def _residue(c):
    return c.numerator * pow(c.denominator, -1, P) % P


def _residues(jets_):
    """Rational jets' coefficients as residues, one nested list per jet."""
    return [[[_residue(c) for c in row] for row in g.coeffs] for g in jets_]


def _residue_jet(m, r, jets_):
    """Rational jets stacked into one jet of residue columns, entry t for jets_[t]."""
    cols = np.array(_residues(jets_), dtype=np.int64)
    return JetGroupElement(m, r, [[Residues(cols[:, i, k].copy()) for k in range(cols.shape[2])] for i in range(m)])


def _reference_frames(rng, m, r, count, lead, rejected=None):
    """`count` draws of `lead` numbers in [-1, 1) and then a float jet, as
    (leads, jets)."""
    leads, out = [], []
    for _ in range(count):
        leads.append(rng.uniform(-1.0, 1.0, size=lead))
        out.append(_random_jet(rng, m, r, rejected))
    return np.array(leads).reshape(count, lead), out


DRAW_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]


@pytest.mark.parametrize("m, r", DRAW_SHAPES)
def test_rational_rows_equal_the_per_jet_loop(m, r):
    a, b = np.random.default_rng(31), np.random.default_rng(31)
    want = [_random_rational_jet(a, m, r) for _ in range(300)]
    got = jets._rational_jets(b, m, r, 300)
    assert got.dtype == np.int64 and got.tolist() == _residues(want)
    assert a.random() == b.random()  # the generator ends in the same place


@pytest.mark.parametrize("lead", [0, 2])
@pytest.mark.parametrize("m, r", DRAW_SHAPES)
def test_float_rows_equal_the_per_jet_loop_bit_for_bit(m, r, lead):
    a, b = np.random.default_rng(32), np.random.default_rng(32)
    want_leads, want = _reference_frames(a, m, r, 300, lead)
    leads, got = jets._float_jets(b, m, r, 300, lead)
    assert leads.tobytes() == want_leads.tobytes()
    assert got.tobytes() == np.array([_floats(g) for g in want]).tobytes()
    assert a.random() == b.random()


# seeds at which the reference loop draws a linear part again within 600
# jets at (2, 2): it rejects about one float linear part in 2,700 and about
# one rational candidate in 4,000
@pytest.mark.parametrize("seed, lead", [(5, 0), (10, 2)], ids=["jets", "frames"])
def test_float_rows_redraw_a_rejected_linear_part_in_place(seed, lead):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    rejected = []
    want_leads, want = _reference_frames(a, 2, 2, 600, lead, rejected)
    assert rejected
    leads, got = jets._float_jets(b, 2, 2, 600, lead)
    assert leads.tobytes() == want_leads.tobytes()
    assert got.tobytes() == np.array([_floats(g) for g in want]).tobytes()
    assert a.random() == b.random()


def test_rational_rows_draw_a_rejected_candidate_again_in_place():
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    rejected = []
    want = [_random_rational_jet(a, 2, 2, rejected) for _ in range(600)]
    assert rejected
    assert jets._rational_jets(b, 2, 2, 600).tolist() == _residues(want)
    assert a.random() == b.random()


@pytest.mark.parametrize("m, r", [(2, 1), (2, 2)])
def test_the_triple_pairs_equal_the_per_pair_loop(m, r):
    # make_triple's 200 pairs, drawn from seed 0
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    want = [g for _ in range(200) for g in (_random_jet(a, m, r), _random_jet(a, m, r))]
    assert jets._float_jets(b, m, r, 400)[1].tobytes() == np.array([_floats(g) for g in want]).tobytes()
    assert a.random() == b.random()


# -- group structure -----------------------------------------------------------


def test_compose_substitutes_and_truncates():
    a = JetGroupElement(1, 2, [[1, 1]])  # x + x^2
    b = JetGroupElement(1, 2, [[1, 1]])
    out = jet_compose(a, b)  # b(a(x)) truncated at degree 2
    assert np.array_equal(_floats(out), [[1.0, 2.0]])


def test_invert_cancels_the_quadratic_term():
    a = JetGroupElement(1, 2, [[1, 1]])
    inv = jet_invert(a)
    assert np.array_equal(_floats(inv), [[1.0, -1.0]])
    assert np.array_equal(_floats(jet_compose(a, inv)), _floats(identity_jet(1, 2)))


def test_identity_is_neutral():
    rng = np.random.default_rng(14)
    g = _random_rational_jet(rng, 2, 2)
    e = identity_jet(2, 2)
    assert jet_compose(g, e) == g
    assert jet_compose(e, g) == g


def test_singular_linear_part_is_rejected():
    with pytest.raises(SingularLinearPart):
        jet_invert(JetGroupElement(1, 2, [[0, 1]]))


small_ints = st.integers(-3, 3)


@st.composite
def rational_jets(draw, m=2, r=2):
    # unit upper-triangular linear part keeps the jet exactly invertible
    monos = monomials(m, r, 1)
    coeffs = []
    for i in range(m):
        row = []
        for a in monos:
            deg = sum(a)
            if deg == 1:
                j = a.index(1)
                row.append(1 if j == i else (draw(small_ints) if j > i else 0))
            else:
                row.append(draw(small_ints))
        coeffs.append(row)
    return JetGroupElement(m, r, coeffs)


@settings(max_examples=40, deadline=None)
@given(rational_jets(), rational_jets(), rational_jets())
def test_composition_is_associative_exactly(a, b, c):
    assert jet_compose(jet_compose(a, b), c) == jet_compose(a, jet_compose(b, c))


@settings(max_examples=40, deadline=None)
@given(rational_jets())
def test_inverses_cancel_exactly(g):
    e = identity_jet(g.m, g.r)
    assert jet_compose(g, jet_invert(g)) == e
    assert jet_compose(jet_invert(g), g) == e


# -- the reference: plain polynomial substitution, truncated at degree r --------


def _ref_mul(p, q, r):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            s = tuple(x + y for x, y in zip(a, b))
            if sum(s) <= r:
                out[s] = out.get(s, 0) + ca * cb
    return out


def _ref_substitute(poly, inner, r):
    """poly (exponent -> coefficient) with x_j replaced by inner[j]."""
    m = len(inner)
    out = {}
    for beta, c in poly.items():
        term = {(0,) * m: 1}
        for j, e in enumerate(beta):
            for _ in range(e):
                term = _ref_mul(term, inner[j], r)
        for a, v in term.items():
            out[a] = out.get(a, 0) + c * v
    return out


def _ref_polys(g):
    return [dict(zip(monomials(g.m, g.r, 1), row)) for row in g.coeffs]


def _ref_coeffs(poly, m, r, mindeg=1):
    return [poly.get(a, 0) for a in monomials(m, r, mindeg)]


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _exact_det(mat):
    """Laplace expansion along the first row, in the entries' own arithmetic."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _exact_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
    )


@st.composite
def fraction_jet_pairs(draw):
    m, r = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2)]))
    n_mon = len(monomials(m, r, 1))

    def jet():
        rows = [[draw(fractions) for _ in range(n_mon)] for _ in range(m)]
        g = JetGroupElement(m, r, rows)
        # exactly: a float determinant can round a singular rational part to nonzero
        assume(_exact_det(g.linear_part()) != 0)
        return g

    return jet(), jet()


def _is_exact(g):
    return all(type(c) in (int, Fraction) for row in g.coeffs for c in row)


def _matrix(H, g):
    """H's matrix at a single jet, as floats."""
    return np.array(H.matrix_generic(g), dtype=float)


@settings(max_examples=30, deadline=None)
@given(fraction_jet_pairs())
def test_compose_and_the_action_match_polynomial_substitution(pair):
    a, b = pair
    m, r = a.m, a.r
    want = [_ref_coeffs(_ref_substitute(p, _ref_polys(a), r), m, r) for p in _ref_polys(b)]
    got = jet_compose(a, b)
    assert [list(row) for row in got.coeffs] == want
    assert _is_exact(got)

    mat = canonical_H(m, r).matrix_generic(a)
    for col, alpha in enumerate(monomials(m, r)):
        column = _ref_coeffs(_ref_substitute({alpha: 1}, _ref_polys(a), r), m, r, mindeg=0)
        assert [row[col] for row in mat] == column


@settings(max_examples=20, deadline=None)
@given(fraction_jet_pairs())
def test_rational_inverses_stay_exact(pair):
    a, _ = pair
    inv = jet_invert(a)
    assert _is_exact(inv)
    e = identity_jet(a.m, a.r)
    assert jet_compose(a, inv) == e and jet_compose(inv, a) == e


@pytest.mark.parametrize("r", [1, 2])
def test_dual_coefficient_jets_invert_to_the_identity(r):
    # a dual coefficient must scale the jet's elements of truncated(1, 1)
    # coefficient by coefficient: the two algebras share a table, not elements
    dual = make_basic("dual")
    rows = [[AlgebraElement(dual, [2.0, 0.5]), AlgebraElement(dual, [-0.25, 1.5])][:r]]
    g = JetGroupElement(1, r, rows)
    one = AlgebraElement(dual, [1.0, 0.0])
    for out in (jet_compose(g, jet_invert(g)), jet_compose(jet_invert(g), g)):
        for k, c in enumerate(out.coeffs[0]):
            want = one.coeffs if k == 0 else (0.0, 0.0)
            assert (c.coeffs if isinstance(c, AlgebraElement) else (c, 0.0)) == want


def test_group_axioms_check():
    out = check_jet_group(1, 2, rng=np.random.default_rng(1), samples=20, tol=1e-10)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-10


# -- residue columns: the exact axioms mod P -------------------------------------


def _entry(c, t):
    """Trial t's coefficient in a residue-column jet; a plain int holds for every trial."""
    return int(c.v[t]) if isinstance(c, Residues) else c % P


@pytest.mark.parametrize("m, r", [(1, 2), (2, 1), (2, 2), (1, 3)])
def test_residue_columns_match_the_fraction_path_jet_by_jet(m, r):
    count = 12
    rng = np.random.default_rng(23)
    a = [_random_rational_jet(rng, m, r) for _ in range(count)]
    b = [_random_rational_jet(rng, m, r) for _ in range(count)]
    ca, cb = _residue_jet(m, r, a), _residue_jet(m, r, b)
    for got, want in (
        (jet_compose(ca, cb), [jet_compose(x, y) for x, y in zip(a, b)]),
        (jet_invert(ca), [jet_invert(x) for x in a]),
    ):
        for t, w in enumerate(want):
            assert _is_exact(w)
            assert [[_entry(c, t) for c in row] for row in got.coeffs] == [
                [_residue(c) for c in row] for row in w.coeffs
            ]
        assert not residue_mismatch(got, _residue_jet(m, r, want), count).any()
    out = check_jet_group(m, r, rng=np.random.default_rng(5), samples=count, tol=1e-10)
    assert out["failures"] == []


@pytest.mark.parametrize("m, r", [(1, 2), (2, 1), (2, 2), (1, 3)])
def test_the_action_check_on_columns_matches_single_jets(m, r):
    # under tol 0 every trial with a nonzero deviation reports it
    count = 15
    out = check_jet_group(m, r, rng=np.random.default_rng(9), samples=count, tol=0.0)
    rng = np.random.default_rng(9)
    for _ in range(3 * count):
        _random_rational_jet(rng, m, r)
    h = canonical_H(m, r)
    want = []
    for trial in range(count):
        g1, g2 = _random_jet(rng, m, r), _random_jet(rng, m, r)
        dev = float(np.abs(_matrix(h, jet_compose(g1, g2)) - _matrix(h, g1) @ _matrix(h, g2)).max())
        if dev > 0:
            want.append({"trial": trial, "axiom": "action-homomorphism", "deviation": dev})
    assert want and out["failures"] == want


def test_a_residue_column_does_not_mix_with_floats():
    col = Residues(np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(TypeError):
        col * 0.5
    with pytest.raises(TypeError):
        0.0 + col
    assert np.array_equal((2 - col * 3).v, [P - 1, P - 4, P - 7])


def test_a_zero_residue_has_no_reciprocal():
    with pytest.raises(SingularLinearPart):
        jets._scalar_recip(Residues(np.array([3, 0, 5], dtype=np.int64)))
    inv = jets._scalar_recip(Residues(np.array([3, P - 1], dtype=np.int64)))
    assert np.array_equal(inv.v * np.array([3, P - 1]) % P, [1, 1])


def test_group_axioms_check_runs_on_one_trial():
    out = check_jet_group(2, 2, rng=np.random.default_rng(2), samples=1, tol=1e-10)
    assert out["failures"] == [] and out["samples"] == 1


def _drop_last_weight(monkeypatch):
    combine = jets._combine
    monkeypatch.setattr(jets, "_combine", lambda w, vectors: combine(list(w)[:-1], vectors))


def _repeat_first_square(monkeypatch):
    table_of = jets._power_table

    def mutant(g):
        table = table_of(g)
        squares = [k for k, a in enumerate(monomials(g.m, g.r, 1)) if degree(a) == 2]
        return [table[squares[0]] if k in squares else t for k, t in enumerate(table)]

    monkeypatch.setattr(jets, "_power_table", mutant)


def _linear_seed_only(monkeypatch):
    def mutant(a):
        ident = identity_jet(a.m, a.r).coeffs
        linv = jets._matinv_generic(a.linear_part())
        return JetGroupElement(a.m, a.r, [jets._combine(row, ident) for row in linv])

    monkeypatch.setattr(jets, "jet_invert", mutant)


def _sub_adds(monkeypatch):
    monkeypatch.setattr(Residues, "__sub__", Residues.__add__)


# the failing units are those of the Fraction path under the same mutant
@pytest.mark.parametrize(
    "mutate, failing",
    [
        (_drop_last_weight, {(1, 2), (2, 1), (2, 2)}),
        (_repeat_first_square, {(2, 2)}),
        (_linear_seed_only, {(1, 2), (2, 2)}),
        (_sub_adds, {(1, 2), (2, 1), (2, 2)}),
    ],
    ids=["combine-drops-last-weight", "power-table-repeats-a-square", "invert-is-linear-seed", "residue-sub-adds"],
)
def test_group_axioms_catch_each_mutant(monkeypatch, mutate, failing):
    mutate(monkeypatch)
    failed = {
        mr
        for mr in [(1, 2), (2, 1), (2, 2)]
        if check_jet_group(*mr, rng=np.random.default_rng(7), samples=200, tol=1e-10)["failures"]
    }
    assert failed == failing


def test_axiom_failures_come_by_trial_then_by_axiom(monkeypatch):
    _sub_adds(monkeypatch)
    out = check_jet_group(2, 2, rng=np.random.default_rng(7), samples=20, tol=1e-10)
    axioms = ["associativity", "identity", "inverse"]
    cells = [(f["trial"], axioms.index(f["axiom"])) for f in out["failures"] if "deviation" not in f]
    assert len({k for _, k in cells}) > 1
    assert cells == sorted(set(cells))
    assert all(type(trial) is int for trial, _ in cells)


@pytest.mark.parametrize(
    "m, r, coeffs", [(1, 0, [[]]), (0, 1, [])], ids=["r=0", "m=0"]
)
def test_jets_without_a_variable_or_an_order_are_rejected(m, r, coeffs):
    with pytest.raises(ShapeMismatch):
        JetGroupElement(m, r, coeffs)


# -- actions --------------------------------------------------------------------


def test_canonical_action_on_a_scaling_jet():
    H = canonical_H(1, 1)
    g = JetGroupElement(1, 1, [[2.0]])
    assert np.array_equal(_matrix(H, g), [[1.0, 0.0], [0.0, 2.0]])


def test_canonical_action_is_a_left_action():
    rng = np.random.default_rng(19)
    H = canonical_H(2, 2)
    for _ in range(10):
        a = _random_rational_jet(rng, 2, 2)
        b = _random_rational_jet(rng, 2, 2)
        lhs = _matrix(H, jet_compose(a, b))
        rhs = _matrix(H, a) @ _matrix(H, b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_action_images_are_algebra_homs():
    # hom validation runs in make_hom; reuse it as the oracle
    H = canonical_H(1, 2)
    g = JetGroupElement(1, 2, [[1.5, -0.3]])
    make_hom(H.algebra, H.algebra, _matrix(H, g))


# -- functor triples --------------------------------------------------------------


def _triple_worst_per_pair(H, t, m, r):
    """make_triple's worst sampled deviation, as a loop that builds each
    pair's matrices on single jets."""
    rng = np.random.default_rng(0)
    h0 = canonical_H(m, r)
    worst = 0.0
    for _ in range(200):
        g1, g2 = _random_jet(rng, m, r), _random_jet(rng, m, r)
        m1 = _matrix(H, g1)
        hom_dev = np.abs(_matrix(H, jet_compose(g1, g2)) - m1 @ _matrix(H, g2)).max()
        equi_dev = np.abs(t.matrix @ _matrix(h0, g1) - m1 @ t.matrix).max()
        worst = max(worst, float(hom_dev), float(equi_dev))
    return worst


def _plant_in_sampled_matrices(monkeypatch, change):
    """H(g) of every jet but the identity (whose coefficients are ints) has
    its rows passed through `change`."""
    matrix_generic = jets.CanonicalAction.matrix_generic

    def planted(self, g):
        rows = matrix_generic(self, g)
        return rows if type(g.coeffs[0][0]) is int else change(rows)

    monkeypatch.setattr(jets.CanonicalAction, "matrix_generic", planted)


def test_triple_requires_equivariance():
    # the scaling x -> 2x is an automorphism of truncated(1,2), but it does
    # not commute with precomposition by a general jet
    t12 = make_basic("truncated", 1, 2)
    t = make_hom(t12, t12, np.diag([1.0, 2.0, 4.0]))
    want = _triple_worst_per_pair(canonical_H(1, 2), t, 1, 2)
    with pytest.raises(InvariantViolation) as err:
        make_triple(t12, canonical_H(1, 2), t, 1, 2)
    assert str(err.value) == "sampled action invariants fail at %g" % want


def test_triple_requires_a_homomorphism(monkeypatch):
    # H(g)[0][0] = 1.5 off the identity: H(g1 then g2) keeps 1.5, the product reads 2.25
    _plant_in_sampled_matrices(monkeypatch, lambda rows: [[rows[0][0] * 1.5, *rows[0][1:]], *rows[1:]])
    h = canonical_H(2, 1)
    want = _triple_worst_per_pair(h, identity_hom(h.algebra), 2, 1)
    with pytest.raises(InvariantViolation) as err:
        make_triple(h.algebra, h, identity_hom(h.algebra), 2, 1)
    assert str(err.value) == "sampled action invariants fail at %g" % want
    assert err.value.worst == want


def test_triple_requires_invertible_images(monkeypatch):
    _plant_in_sampled_matrices(monkeypatch, lambda rows: [*rows[:-1], [0.0 * v for v in rows[-1]]])
    h = canonical_H(1, 2)
    with pytest.raises(InvariantViolation) as err:
        make_triple(h.algebra, h, identity_hom(h.algebra), 1, 2)
    assert str(err.value) == "sampled H(g) is singular"


@pytest.mark.parametrize("m, r", [(1, 2), (2, 2)])
def test_triple_worst_is_the_worst_pair_of_a_per_pair_loop(monkeypatch, m, r):
    h = canonical_H(m, r)
    t = identity_hom(h.algebra)
    want = _triple_worst_per_pair(h, t, m, r)
    assert 0.0 < want <= jets.TRIPLE_TOL
    assert make_triple(h.algebra, h, t, m, r).H is h
    # at tolerance 0 the worst pair is reported
    monkeypatch.setattr(jets, "TRIPLE_TOL", 0.0)
    with pytest.raises(InvariantViolation) as err:
        make_triple(h.algebra, h, t, m, r)
    assert err.value.worst == want


# -- frames -----------------------------------------------------------------------


def test_canonical_frame_is_a_shifted_identity_chart():
    assert np.allclose(frame_evaluate(np.array([0.5]), identity_jet(1, 2), [0.25]), [0.75])


@pytest.mark.parametrize("m, r", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)])
def test_frame_flat_layout_round_trips_bit_for_bit(m, r):
    rng = np.random.default_rng(6)
    x, jet = rng.uniform(-1.0, 1.0, size=m), _random_jet(rng, m, r)
    flat = frame_to_flat(x, jet.coeffs)
    # coordinate-major: row i is x_i followed by the jet coefficients of component i
    rows = flat.reshape(m, len(monomials(m, r)))
    assert rows[:, 0].tobytes() == x.tobytes()
    assert np.ascontiguousarray(rows[:, 1:]).tobytes() == _floats(jet).tobytes()
    back = JetGroupElement(m, r, rows[:, 1:].tolist())
    assert back == jet
    assert frame_to_flat(rows[:, 0], back.coeffs).tobytes() == flat.tobytes()
    # a block of frames lays out each frame as on its own
    block = frame_to_flat(np.stack([x, -x]), np.stack([_floats(jet), -_floats(jet)]))
    assert block[0].tobytes() == flat.tobytes()
    assert block[1].tobytes() == frame_to_flat(-x, -_floats(jet)).tobytes()


def test_frame_prolongation_matches_the_flow_oracle():
    rng = np.random.default_rng(3)
    for m, r in [(1, 1), (2, 1)]:
        xi = random_poly_field(rng, m, deg=2)
        out = check_frame_prolong(xi, r, samples=3, rng=rng, tol=1e-5)
        assert out["failures"] == []
        assert out["max_error"] <= 1e-5


def _flow_oracle_per_point(xi, r, flat):
    """The flow oracle one grid point at a time, on float evaluations."""
    m = xi.dim
    rows = np.asarray(flat).reshape(m, -1)
    x, jet = rows[:, 0], JetGroupElement(m, r, rows[:, 1:].tolist())
    monos = monomials(m, r)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    scaled = np.stack(np.meshgrid(*([offsets] * m)), axis=-1).reshape(-1, m)
    design = np.array([[np.prod(y ** np.array(a)) for a in monos] for y in scaled])
    rescale = np.array([jets.FLOW_GRID ** degree(a) for a in monos])

    def f(z):
        return np.array(evaluate(xi.components, [float(v) for v in z]))

    def rk4_to(z, t):
        remaining, sgn = t, (1.0 if t >= 0 else -1.0)
        while abs(remaining) > 1e-18:
            h = sgn * min(jets.FLOW_RK_STEP, abs(remaining))
            k1 = f(z)
            k2 = f(z + 0.5 * h * k1)
            k3 = f(z + 0.5 * h * k2)
            k4 = f(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            remaining -= h
        return z

    fits = []
    for sign in (1.0, -1.0):
        images = np.array(
            [rk4_to(frame_evaluate(x, jet, y), sign * jets.FLOW_FD_STEP) for y in scaled * jets.FLOW_GRID]
        )
        fits.append(np.linalg.lstsq(design, images, rcond=None)[0] / rescale[:, None])
    return ((fits[0] - fits[1]) / (2.0 * jets.FLOW_FD_STEP)).T.reshape(-1)


# a time step past FLOW_RK_STEP makes rk4_to take several steps
@pytest.mark.parametrize("fd_step", [None, 2.5e-3])
@pytest.mark.parametrize("m, r", [(1, 1), (1, 2), (2, 1)])
def test_block_flow_oracle_matches_a_per_point_loop_bit_for_bit(monkeypatch, m, r, fd_step):
    if fd_step is not None:
        monkeypatch.setattr(jets, "FLOW_FD_STEP", fd_step)
    rng = np.random.default_rng(40 + 10 * m + r)
    xi = random_poly_field(rng, m, deg=2)
    for _ in range(3):
        flat = frame_to_flat(rng.uniform(-1.0, 1.0, size=m), _random_jet(rng, m, r).coeffs)
        assert flow_frame_oracle(xi, r, flat).tobytes() == _flow_oracle_per_point(xi, r, flat).tobytes()


@pytest.mark.parametrize("m, r", [(1, 1), (1, 2), (2, 1)])
def test_frame_prolong_block_matches_a_per_trial_loop(m, r):
    xi = random_poly_field(np.random.default_rng(50 + m), m, deg=2)
    out = check_frame_prolong(xi, r, samples=4, rng=np.random.default_rng(5), tol=0.0)
    field = frame_prolong(xi, r)
    rng = np.random.default_rng(5)
    devs = []
    for trial in range(4):
        flat = frame_to_flat(rng.uniform(-1.0, 1.0, size=m), _random_jet(rng, m, r).coeffs)
        got = np.array(evaluate(field.components, [float(v) for v in flat]))
        devs.append(({"pair": 0, "trial": trial}, float(np.abs(_flow_oracle_per_point(xi, r, flat) - got).max(initial=0.0))))
    assert out == tally(devs, 0.0)
    assert len(out["failures"]) == 4  # every deviation is nonzero, so tol 0 lists them all


def test_frame_prolong_base_slots_are_the_base_field():
    rng = np.random.default_rng(4)
    xi = random_poly_field(rng, 1, deg=2)
    pro = frame_prolong(xi, 2)
    flat = rng.uniform(-0.5, 0.5, size=pro.dim)
    out = evaluate(pro.components, list(flat))
    base = evaluate(xi.components, list(flat[:1]))
    assert np.allclose(out[:1], base, atol=1e-12)


# -- prolongation through a triple ---------------------------------------------------


def test_projectable_fields_prolong_and_commute_with_brackets():
    rng = np.random.default_rng(15)
    triple = jet_triple(1, 1)
    fields = []
    for _ in range(2):
        base = random_poly_field(rng, 1, deg=2).components
        fiber = Program(2, [rng.uniform(-0.5, 0.5) * Var(0) * Var(1) + rng.uniform(-0.5, 0.5) * intpow(Var(1), 2)])
        fields.append(VectorField(2, Program(2, list(base.exprs) + list(fiber.exprs))))
    out = check_bracket_preserved(triple, fields[0], fields[1], samples=10, rng=rng, tol=1e-6)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-6


def test_a_projectable_field_prolongs_with_three_compiled_programs(monkeypatch):
    # the base part and the vertical part while prolonging; the stacked
    # result on its first run
    tapes = []

    class CountingTape(programs.Tape):
        def __init__(self, body, arity_in):
            tapes.append(arity_in)
            super().__init__(body, arity_in)

    triple = jet_triple(1, 2)
    field = VectorField(2, Program(2, [Var(0) * Var(0), Var(0) * Var(1) + intpow(Var(1), 2)]))
    want = g_field_prolong(triple, field)
    pt = np.linspace(-0.6, 0.3, want.dim).tolist()
    want_values = evaluate(want.components, pt)
    monkeypatch.setattr(programs, "Tape", CountingTape)
    got = g_field_prolong(triple, field)
    assert len(tapes) == 2
    assert evaluate(got.components, pt) == want_values
    assert len(tapes) == 3


def test_non_projectable_base_components_are_rejected():
    field = VectorField(2, Program(2, [Var(1), Const(0.0)]))
    with pytest.raises(NonProjectable):
        g_field_prolong(jet_triple(1, 1), field)


def test_first_order_prolongation_is_the_contact_formula():
    out = check_classical_prolongation(samples=6, rng=np.random.default_rng(5), tol=1e-8)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-8


def test_classical_prolongation_matches_a_per_trial_loop_bit_for_bit():
    # the reference draws each trial's phi with random_poly_program and
    # prolongs it on its own
    out = check_classical_prolongation(samples=7, rng=np.random.default_rng(19), tol=0.0)
    rng = np.random.default_rng(19)
    triple = jet_triple(1, 1)
    devs = []
    for trial in range(7):
        phi = random_poly_program(rng, 2, 1, deg=3, scale=0.6)
        gf = g_field_prolong(triple, VectorField(2, Program(2, [Const(0.0), phi.exprs[0]])))
        x, y, y1 = rng.uniform(-1.0, 1.0, size=3)
        got = np.array(evaluate(gf.components, [x, y, y1]))
        grad = jacobian_oracle(phi, [x, y], richardson=True)[0]
        want = np.array([0.0, evaluate(phi, [x, y])[0], grad[0] + y1 * grad[1]])
        devs.append(({"pair": 0, "trial": trial}, float(np.abs(got - want).max(initial=0.0))))
    assert out == tally(devs, 0.0)
    assert out["max_error"] > 0.0  # a tolerance of 0 lists the nonzero deviations


def test_first_order_prolongation_moves_the_frame_by_the_base_field():
    # X = xi(x) d/dx + phi(x, y) d/dy prolongs on (x, y, y1) to
    # (xi, phi, phi_x + y1 phi_y - y1 xi'); the partials come from
    # finite differences, so the frame correction meets an outside oracle
    rng = np.random.default_rng(41)
    triple = jet_triple(1, 1)
    for _ in range(20):
        xi = random_poly_program(rng, 1, 1, deg=3, scale=0.6)
        phi = random_poly_program(rng, 2, 1, deg=3, scale=0.6)
        field = VectorField(2, Program(2, [xi.exprs[0], phi.exprs[0]]))
        gf = g_field_prolong(triple, field)
        x, y, y1 = rng.uniform(-1.0, 1.0, size=3)
        got = np.array(evaluate(gf.components, [x, y, y1]))
        dxi = jacobian_oracle(xi, [x], richardson=True)[0, 0]
        dphi = jacobian_oracle(phi, [x, y], richardson=True)[0]
        want = [
            evaluate(xi, [x])[0],
            evaluate(phi, [x, y])[0],
            dphi[0] + y1 * dphi[1] - y1 * dxi,
        ]
        assert np.abs(got - want).max() <= 1e-8
