"""Jet groups, functor triples, frames, and prolongation to jet-like bundles.

A jet group element is an invertible r-jet at 0 of a map R^m -> R^m fixing
0, stored as coefficients over the positive-degree graded monomials.  The
group product exposed here is jet_compose(a, b) = "a then b" (the function
composition of b after a, truncated at degree r).

Actions on algebras: the canonical action on truncated(m, r) is
precomposition of function jets by the group element, which makes
H(jet_compose(a, b)) = H(a) compose H(b) with the product above.  A functor
triple (A, H, t) packages an algebra, such an action, and an equivariant
homomorphism t from truncated(m, r) into A; its invariants are validated by
sampling at construction.

Frames over R^m are pairs (x, g): the jet of y -> x + g(y).  The canonical
frame at x has g = id.  Points of the associated bundle are normalized to
the canonical frame; moving a frame by g on the right moves the fiber
value by H(g inverse).

Prolongation of a base field to frames is the r-jet of the field along the
frame map; prolongation of a projectable field to the associated bundle
differentiates the normalization map with a nilpotent dual parameter, so
the quotient differential is exact rather than finite-differenced.  Carrier
generic scalars (floats, Fractions, dual elements with expression
coefficients) flow through the same jet arithmetic, which is what makes
that trick a one-liner instead of a second code path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from ._monomials import add_indices, degree, monomial_index, monomials
from .algebra import (
    AlgebraElement,
    AlgebraHom,
    WeilAlgebra,
    algebra_from_json,
    algebra_to_json,
    apply_matrix,
    identity_hom,
    make_basic,
    make_hom,
)
from .errors import (
    DomainError,
    InvariantViolation,
    NonProjectable,
    ShapeMismatch,
    SingularLinearPart,
)
from .exprs import Const, Expr, Var, max_var
from .functor import lift_elements
from .programs import Program, VectorField, evaluate
from .prolong import field_prolong
from .scalars import apply_primitive
from .reports import tally
from .strongdiff import bracket, bracket_value, dual_algebra

_MIN_DET = 1e-12
# resolution of flow_frame_oracle, certified for the 1e-5 frame-prolong bound
FLOW_RK_STEP = 1e-3
FLOW_FD_STEP = 1e-4
FLOW_GRID = 1e-3


# -- carrier-generic scalar helpers --------------------------------------


def _is_exact_zero(x) -> bool:
    return isinstance(x, (int, float, Fraction)) and x == 0


def _scalar_size(x):
    """|x| as a float when the carrier admits one; None for symbolic scalars."""
    if isinstance(x, AlgebraElement):
        x = x.coeffs[x.algebra.unit_index]
    if isinstance(x, Expr):
        return None
    try:
        return abs(float(x))
    except (TypeError, ValueError):
        return None


def _scalar_recip(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    return apply_primitive("recip", x)


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _det_generic(mat):
    n = len(mat)
    total = None
    for perm in permutations(range(n)):
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        if _perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def _matinv_generic(mat):
    """Inverse by adjugate over any carrier; no pivoting, fine for m <= 4."""
    n = len(mat)
    det = _det_generic(mat)
    size = _scalar_size(det)
    if size is not None and size < _MIN_DET:
        raise SingularLinearPart("determinant %g is numerically zero" % size)
    rdet = _scalar_recip(det)
    if n == 1:
        return [[rdet]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[p][q] for q in range(n) if q != j]
                for p in range(n)
                if p != i
            ]
            cof = _det_generic(minor)
            if (i + j) & 1:
                cof = -cof
            out[j][i] = cof * rdet
    return out


def _apply_generic_matrix(mat, vec):
    """mat @ vec where entries of both may be arbitrary carrier scalars."""
    out = []
    for row in mat:
        acc = None
        for c, v in zip(row, vec):
            if _is_exact_zero(c) or _is_exact_zero(v):
                continue
            term = v if (isinstance(c, int) and c == 1) else c * v
            acc = term if acc is None else acc + term
        out.append(0.0 if acc is None else acc)
    return out


# -- jet group ------------------------------------------------------------


class JetGroupElement:
    """Invertible r-jet at 0 of a map R^m -> R^m fixing 0.

    coeffs[i][k] is the coefficient of the k-th positive-degree graded
    monomial in component i.  Scalars are carrier generic; the linear-part
    determinant is only checked when the carrier admits a numeric size.
    """

    __slots__ = ("m", "r", "coeffs")

    def __init__(self, m: int, r: int, coeffs, check: bool = True):
        n_mon = len(monomials(m, r, 1))
        coeffs = tuple(tuple(row) for row in coeffs)
        if len(coeffs) != m or any(len(row) != n_mon for row in coeffs):
            raise ShapeMismatch(
                "jet needs %d rows of %d coefficients" % (m, n_mon)
            )
        self.m = m
        self.r = r
        self.coeffs = coeffs
        if check:
            size = _scalar_size(_det_generic(self.linear_part()))
            if size is not None and size < _MIN_DET:
                raise SingularLinearPart(
                    "linear part determinant %g" % size
                )

    def linear_part(self):
        # the first m graded monomials are the degree-1 ones, variable i at slot i
        return [[self.coeffs[i][j] for j in range(self.m)] for i in range(self.m)]

    def polys(self):
        monos = monomials(self.m, self.r, 1)
        out = []
        for row in self.coeffs:
            out.append(
                {a: c for a, c in zip(monos, row) if not _is_exact_zero(c)}
            )
        return out

    def as_array(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, JetGroupElement)
            and self.m == other.m
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.m, self.r, self.coeffs))

    def __repr__(self):
        return "JetGroupElement(m=%d, r=%d)" % (self.m, self.r)


def identity_jet(m: int, r: int) -> JetGroupElement:
    monos = monomials(m, r, 1)
    coeffs = [
        [1 if degree(a) == 1 and a[i] == 1 else 0 for a in monos]
        for i in range(m)
    ]
    return JetGroupElement(m, r, coeffs, check=False)


def _jet_from_polys(m: int, r: int, polys) -> JetGroupElement:
    monos = monomials(m, r, 1)
    coeffs = [[p.get(a, 0) for a in monos] for p in polys]
    return JetGroupElement(m, r, coeffs, check=False)


def _poly_mul(p: dict, q: dict, r: int) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            s = add_indices(a, b)
            if degree(s) > r:
                continue
            term = ca * cb
            cur = out.get(s)
            out[s] = term if cur is None else cur + term
    return out


def _compose_polys(outer, inner, m: int, r: int):
    """Substitute the inner polynomial list into each outer polynomial."""
    zero = (0,) * m
    pow_cache = [{0: {zero: 1}} for _ in inner]

    def ipow(i, k):
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = _poly_mul(ipow(i, k - 1), inner[i], r)
        return cache[k]

    out = []
    for comp in outer:
        acc: dict = {}
        for beta, c in comp.items():
            term = {zero: 1}
            for i, e in enumerate(beta):
                if e:
                    term = _poly_mul(term, ipow(i, e), r)
            for a, v in term.items():
                tv = c if (isinstance(v, int) and v == 1) else v * c
                cur = acc.get(a)
                acc[a] = tv if cur is None else cur + tv
        out.append(acc)
    return out


def jet_compose(a: JetGroupElement, b: JetGroupElement) -> JetGroupElement:
    """The group product "a then b": truncated composition of b after a."""
    if a.m != b.m or a.r != b.r:
        raise ShapeMismatch("jets have different (m, r)")
    return _jet_from_polys(a.m, a.r, _compose_polys(b.polys(), a.polys(), a.m, a.r))


def jet_invert(a: JetGroupElement) -> JetGroupElement:
    """Group inverse, solved degree by degree.

    With a = L + N (linear plus higher), the fixed point of
    B <- Linv(id - N(B)) gains one correct degree per pass, so r - 1 passes
    after the linear seed suffice.
    """
    m, r = a.m, a.r
    linv = _matinv_generic(a.linear_part())
    monos1 = monomials(m, 1, 1)

    def lin_apply(polys):
        out = []
        for i in range(m):
            acc: dict = {}
            for j in range(m):
                c = linv[i][j]
                if _is_exact_zero(c):
                    continue
                for alpha, v in polys[j].items():
                    tv = v * c
                    cur = acc.get(alpha)
                    acc[alpha] = tv if cur is None else cur + tv
            out.append(acc)
        return out

    b_polys = lin_apply([{monos1[j]: 1} for j in range(m)])
    if r >= 2:
        ident = [{monos1[i]: 1} for i in range(m)]
        ntilde = [
            {alpha: c for alpha, c in p.items() if degree(alpha) >= 2}
            for p in a.polys()
        ]
        for _ in range(r - 1):
            nb = _compose_polys(ntilde, b_polys, m, r)
            resid = []
            for i in range(m):
                d = dict(ident[i])
                for alpha, v in nb[i].items():
                    cur = d.get(alpha)
                    d[alpha] = -v if cur is None else cur - v
                resid.append(d)
            b_polys = lin_apply(resid)
    return _jet_from_polys(m, r, b_polys)


def random_jet(rng, m: int, r: int) -> JetGroupElement:
    """Float jet with linear part kept comfortably invertible."""
    while True:
        lin = np.eye(m) + 0.4 * rng.uniform(-1.0, 1.0, size=(m, m))
        if abs(np.linalg.det(lin)) > 0.3:
            break
    monos = monomials(m, r, 1)
    coeffs = []
    for i in range(m):
        row = []
        for alpha in monos:
            if degree(alpha) == 1:
                row.append(float(lin[i][alpha.index(1)]))
            else:
                row.append(float(rng.uniform(-0.5, 0.5)))
        coeffs.append(row)
    return JetGroupElement(m, r, coeffs, check=False)


def random_rational_jet(rng, m: int, r: int) -> JetGroupElement:
    """Fraction-coefficient jet; group arithmetic on it stays exact."""
    monos = monomials(m, r, 1)
    while True:
        coeffs = []
        for i in range(m):
            row = []
            for alpha in monos:
                base = 2 if degree(alpha) == 1 and alpha[i] == 1 else 0
                row.append(
                    Fraction(base * 3 + int(rng.integers(-2, 3)), int(rng.integers(1, 4)) * 3)
                )
            coeffs.append(row)
        jet = JetGroupElement(m, r, coeffs, check=False)
        if _det_generic(jet.linear_part()) != 0:
            return jet


def jet_to_json(g: JetGroupElement) -> dict:
    return {"m": g.m, "r": g.r, "coeffs": [[float(c) for c in row] for row in g.coeffs]}


def jet_from_json(data) -> JetGroupElement:
    if not isinstance(data, dict) or set(data) != {"m", "r", "coeffs"}:
        raise ShapeMismatch("jet document needs exactly m, r, coeffs")
    return JetGroupElement(int(data["m"]), int(data["r"]), data["coeffs"])


# -- actions on algebras ---------------------------------------------------


class CanonicalAction:
    """Precompose-by-g on the coefficient space of truncated(m, r).

    Column alpha of the matrix holds the expansion of the monomial x^alpha
    composed with g.  With the product jet_compose this is a left action:
    H(jet_compose(a, b)) = H(a) compose H(b).
    """

    __slots__ = ("m", "r", "algebra", "_monos", "_index")

    def __init__(self, m: int, r: int):
        self.m = m
        self.r = r
        self.algebra = make_basic("truncated", m, r)
        self._monos = monomials(m, r)
        self._index = monomial_index(m, r)

    def matrix_generic(self, g: JetGroupElement):
        if g.m != self.m or g.r != self.r:
            raise ShapeMismatch("jet shape does not match the action")
        outs = _compose_polys(
            [{alpha: 1} for alpha in self._monos], g.polys(), self.m, self.r
        )
        d = len(self._monos)
        mat = [[0] * d for _ in range(d)]
        for col, poly in enumerate(outs):
            for alpha, v in poly.items():
                mat[self._index[alpha]][col] = v
        return mat

    def __call__(self, g: JetGroupElement) -> AlgebraHom:
        mat = np.array(
            [[float(v) for v in row] for row in self.matrix_generic(g)]
        )
        return AlgebraHom(self.algebra, self.algebra, mat, validate=False)


class TrivialAction:
    """Every group element acts as the identity automorphism."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: WeilAlgebra):
        self.algebra = algebra

    def matrix_generic(self, g: JetGroupElement):
        d = self.algebra.dim
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def __call__(self, g: JetGroupElement) -> AlgebraHom:
        return identity_hom(self.algebra)


class TableAction:
    """Action given by an explicit jet -> matrix table.

    Only sampled validation is possible for such an action, and it cannot
    be differentiated, so field prolongation through it is unavailable.
    """

    __slots__ = ("algebra", "m", "r", "_table")

    def __init__(self, algebra: WeilAlgebra, m: int, r: int, entries):
        self.algebra = algebra
        self.m = m
        self.r = r
        self._table = {}
        for jet, mat in entries:
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (algebra.dim, algebra.dim):
                raise ShapeMismatch("table matrix shape does not match the algebra")
            self._table[self._key(jet)] = mat

    def _key(self, g: JetGroupElement):
        if g.m != self.m or g.r != self.r:
            raise ShapeMismatch("jet shape does not match the action")
        return tuple(round(float(c), 12) for row in g.coeffs for c in row)

    def matrix_generic(self, g):
        raise DomainError("a table action cannot be differentiated")

    def __call__(self, g: JetGroupElement) -> AlgebraHom:
        mat = self._table.get(self._key(g))
        if mat is None:
            raise DomainError("jet is not in the action table")
        return AlgebraHom(self.algebra, self.algebra, mat, validate=False)


_canonical_cache: dict = {}


def canonical_H(m: int, r: int) -> CanonicalAction:
    key = (m, r)
    if key not in _canonical_cache:
        _canonical_cache[key] = CanonicalAction(m, r)
    return _canonical_cache[key]


# -- functor triples -------------------------------------------------------


class FunctorTriple:
    """Algebra, jet-group action by automorphisms, equivariant t."""

    __slots__ = ("algebra", "H", "t", "m", "r")

    def __init__(self, algebra: WeilAlgebra, H, t: AlgebraHom, m: int, r: int):
        self.algebra = algebra
        self.H = H
        self.t = t
        self.m = m
        self.r = r

    @property
    def jet_algebra(self) -> WeilAlgebra:
        return self.t.source

    def __repr__(self):
        return "FunctorTriple(%s, m=%d, r=%d)" % (self.algebra.name, self.m, self.r)


def make_triple(algebra: WeilAlgebra, H, t: AlgebraHom, m: int, r: int) -> FunctorTriple:
    """Validate the triple invariants on sampled group elements.

    Checks H(id) = id, the homomorphism law for jet_compose, invertibility
    of each sampled H(g), and equivariance of t against the canonical
    action, on 200 pairs drawn from a fixed seed, to within 1e-10.
    Sampling can only refute, not prove; reports say so.
    """
    rng = np.random.default_rng(0)
    dmr = make_basic("truncated", m, r)
    if not t.source.same_structure(dmr):
        raise ShapeMismatch("t must start at truncated(%d,%d)" % (m, r))
    if not t.target.same_structure(algebra):
        raise ShapeMismatch("t must land in the triple's algebra")

    ident_dev = float(
        np.abs(H(identity_jet(m, r)).matrix - np.eye(algebra.dim)).max()
    )
    if ident_dev > 1e-10:
        raise InvariantViolation("H(id) is not the identity", worst=ident_dev)

    h0 = canonical_H(m, r)
    worst = 0.0
    for _ in range(200):
        g1 = random_jet(rng, m, r)
        g2 = random_jet(rng, m, r)
        m1 = H(g1).matrix
        m2 = H(g2).matrix
        if abs(np.linalg.det(m1)) < _MIN_DET:
            raise InvariantViolation("sampled H(g) is singular")
        m12 = H(jet_compose(g1, g2)).matrix
        hom_dev = float(np.abs(m12 - m1 @ m2).max())
        equi_dev = float(
            np.abs(t.matrix @ h0(g1).matrix - m1 @ t.matrix).max()
        )
        worst = max(worst, hom_dev, equi_dev)
    if worst > 1e-10:
        raise InvariantViolation(
            "sampled action invariants fail at %g" % worst, worst=worst
        )
    return FunctorTriple(algebra, H, t, m, r)


_jet_triple_cache: dict = {}


def jet_triple(m: int, r: int) -> FunctorTriple:
    """The triple (truncated(m,r), canonical action, identity)."""
    key = (m, r)
    if key not in _jet_triple_cache:
        h = canonical_H(m, r)
        _jet_triple_cache[key] = make_triple(h.algebra, h, identity_hom(h.algebra), m, r)
    return _jet_triple_cache[key]


def triple_to_json(triple: FunctorTriple) -> dict:
    h = triple.H
    if isinstance(h, CanonicalAction):
        h_doc = "canonical"
    elif isinstance(h, TrivialAction):
        h_doc = "trivial"
    elif isinstance(h, TableAction):
        h_doc = {
            "table": [
                {
                    "jet": [list(map(float, row)) for row in _key_to_rows(key, triple.m, triple.r)],
                    "matrix": mat.tolist(),
                }
                for key, mat in h._table.items()
            ]
        }
    else:
        raise ShapeMismatch("unknown action kind %r" % type(h).__name__)
    return {
        "algebra": algebra_to_json(triple.algebra),
        "H": h_doc,
        "t": np.asarray(triple.t.matrix, dtype=float).tolist(),
        "m": triple.m,
        "r": triple.r,
    }


def _key_to_rows(key, m, r):
    n_mon = len(monomials(m, r, 1))
    return [key[i * n_mon : (i + 1) * n_mon] for i in range(m)]


def triple_from_json(data) -> FunctorTriple:
    if not isinstance(data, dict) or set(data) != {"algebra", "H", "t", "m", "r"}:
        raise ShapeMismatch("triple document needs algebra, H, t, m, r")
    m, r = int(data["m"]), int(data["r"])
    algebra = algebra_from_json(data["algebra"])
    h_doc = data["H"]
    if h_doc == "canonical":
        h = canonical_H(m, r)
        if not algebra.same_structure(h.algebra):
            raise ShapeMismatch(
                "canonical action requires the truncated(%d,%d) structure" % (m, r)
            )
        algebra = h.algebra
    elif h_doc == "trivial":
        h = TrivialAction(algebra)
    elif isinstance(h_doc, dict) and set(h_doc) == {"table"}:
        entries = [
            (JetGroupElement(m, r, e["jet"]), e["matrix"]) for e in h_doc["table"]
        ]
        h = TableAction(algebra, m, r, entries)
    else:
        raise ShapeMismatch("H must be 'canonical', 'trivial', or a table")
    t = make_hom(make_basic("truncated", m, r), algebra, np.asarray(data["t"], dtype=float))
    return make_triple(algebra, h, t, m, r)


# -- frames ---------------------------------------------------------------


class Frame:
    """A frame over R^m: base point and jet part (x, g)."""

    __slots__ = ("x", "jet")

    def __init__(self, x, jet: JetGroupElement):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != jet.m:
            raise ShapeMismatch("base point dim differs from the jet's m")
        self.x = x
        self.jet = jet

    @property
    def m(self):
        return self.jet.m

    @property
    def r(self):
        return self.jet.r

    def __repr__(self):
        return "Frame(m=%d, r=%d)" % (self.jet.m, self.jet.r)


def canonical_frame(m: int, r: int, x) -> Frame:
    return Frame(x, identity_jet(m, r))


def frame_to_flat(frame: Frame) -> np.ndarray:
    """Coordinate-major layout matching the lifted space over truncated(m,r)."""
    m, r = frame.m, frame.r
    dim_d = len(monomials(m, r))
    out = np.zeros(m * dim_d)
    arr = frame.jet.as_array()
    for i in range(m):
        out[i * dim_d] = frame.x[i]
        out[i * dim_d + 1 : (i + 1) * dim_d] = arr[i]
    return out


def flat_to_frame(m: int, r: int, flat) -> Frame:
    dim_d = len(monomials(m, r))
    flat = np.asarray(flat, dtype=float).reshape(m, dim_d)
    return Frame(flat[:, 0], JetGroupElement(m, r, flat[:, 1:].tolist()))


def frame_evaluate(frame: Frame, y) -> np.ndarray:
    """The frame's polynomial map at y: x + g(y)."""
    monos = monomials(frame.m, frame.r, 1)
    y = np.asarray(y, dtype=float)
    vals = np.array([np.prod(y ** np.array(a)) for a in monos])
    return frame.x + frame.jet.as_array() @ vals


def frame_prolong(xi: VectorField, r: int) -> VectorField:
    """The frame-space field: value at a frame is the r-jet of xi along it.

    Rendered on the coordinate-major flat layout of frame_to_flat; the x
    block is driven by the degree-0 coefficients, the group block by the
    rest.
    """
    dmr = make_basic("truncated", xi.dim, r)
    return field_prolong(dmr, xi).rendering


def flow_frame_oracle(xi: VectorField, r: int, flat) -> np.ndarray:
    """Finite-difference flow prolongation, used only as a test oracle.

    Integrates sample points of the frame map downstairs with RK4 in steps
    of FLOW_RK_STEP, refits the jet coefficients on a grid of spacing
    FLOW_GRID, and central-differences in time with step FLOW_FD_STEP.
    Independent of the jet arithmetic above.  The grid must stay small:
    degree r+2 terms of the flow alias onto lower coefficients at rate
    grid^2, which is the oracle's dominant systematic error.
    """
    m = xi.dim
    frame = flat_to_frame(m, r, flat)
    monos = monomials(m, r)

    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    scaled = np.stack(np.meshgrid(*([offsets] * m)), axis=-1).reshape(-1, m)
    grids = scaled * FLOW_GRID
    # fit against the dimensionless grid, then undo the column scaling
    design = np.array([[np.prod(y ** np.array(a)) for a in monos] for y in scaled])
    rescale = np.array([FLOW_GRID ** degree(a) for a in monos])

    def rk4_to(z0: np.ndarray, t: float) -> np.ndarray:
        def f(z):
            return np.array(evaluate(xi.components, [float(v) for v in z]))

        z = z0.copy()
        remaining = t
        sgn = 1.0 if t >= 0 else -1.0
        while abs(remaining) > 1e-18:
            h = sgn * min(FLOW_RK_STEP, abs(remaining))
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
            [rk4_to(frame_evaluate(frame, y), sign * FLOW_FD_STEP) for y in grids]
        )
        coeff, _, _, _ = np.linalg.lstsq(design, images, rcond=None)
        fits.append(coeff / rescale[:, None])  # (n_monos, m)
    deriv = (fits[0] - fits[1]) / (2.0 * FLOW_FD_STEP)
    dim_d = len(monos)
    out = np.zeros(m * dim_d)
    for i in range(m):
        out[i * dim_d : (i + 1) * dim_d] = deriv[:, i]
    return out


def check_frame_prolong(xi: VectorField, r: int, samples: int = 5, rng=None, tol: float = 1e-5) -> dict:
    """Frame prolongation against the flow finite-difference oracle."""
    if rng is None:
        rng = np.random.default_rng(0)
    m = xi.dim
    field = frame_prolong(xi, r)

    def deviations():
        for trial in range(samples):
            frame = Frame(rng.uniform(-1.0, 1.0, size=m), random_jet(rng, m, r))
            flat = frame_to_flat(frame)
            want = flow_frame_oracle(xi, r, flat)
            got = np.array(evaluate(field.components, [float(v) for v in flat]))
            yield {"trial": trial}, float(np.abs(want - got).max(initial=0.0))

    return tally(deviations(), tol)


# -- associated bundle points ---------------------------------------------


def _canonical_frame_elements(dmr: WeilAlgebra, xvals) -> list:
    out = []
    for i, xv in enumerate(xvals):
        coeffs = [0.0] * dmr.dim
        coeffs[0] = xv
        coeffs[1 + i] = 1.0
        out.append(AlgebraElement(dmr, coeffs))
    return out


def base_block(triple: FunctorTriple, xvals) -> list:
    """t applied to the canonical frame at x: the constrained base part."""
    return [
        AlgebraElement(triple.algebra, apply_matrix(triple.t.matrix, el.coeffs))
        for el in _canonical_frame_elements(triple.jet_algebra, xvals)
    ]


# -- field prolongation on the associated bundle ---------------------------


def moving_frame_dual(triple: FunctorTriple, base_exprs):
    """First-order frame correction for fields written at the canonical frame.

    Returns (xdot, m_dual): the base velocity expressions and the H-matrix,
    with dual-number entries over symbolic base coordinates, of the inverse
    of the moving frame jet id + eps*gdot.  Applying m_dual to dual pairs
    (value, raw velocity) and keeping the epsilon parts renormalizes a
    fiber velocity back to the canonical frame.
    """
    m, r = triple.m, triple.r
    dmr = triple.jet_algebra
    d = dual_algebra()
    xs = [Var(i) for i in range(m)]

    # r-jet of the base field along the canonical frame
    jets = lift_elements(
        dmr, Program(m, base_exprs), _canonical_frame_elements(dmr, xs)
    )
    xdot = [el.coeffs[0] for el in jets]

    # moving frame to first order: id + eps * gdot
    idj = identity_jet(m, r)
    g_dual_rows = []
    for i in range(m):
        row = []
        for k in range(dmr.dim - 1):
            vel = jets[i].coeffs[k + 1]
            if not isinstance(vel, Expr):
                vel = float(vel)
            row.append(AlgebraElement(d, [float(idj.coeffs[i][k]), vel]))
        g_dual_rows.append(row)
    g_dual = JetGroupElement(m, r, g_dual_rows, check=False)
    return xdot, triple.H.matrix_generic(jet_invert(g_dual))


def g_field_prolong(triple: FunctorTriple, field: VectorField) -> VectorField:
    """Prolong a projectable field to normalized bundle coordinates.

    The product motion (frame prolongation of the base part, lift of the
    whole field over A) is pushed through the normalization map with a
    nilpotent dual parameter: every scalar of the moving point is a dual
    number, the frame part is inverted and acted with carrier-generic jet
    arithmetic, and the epsilon parts of the result are the prolonged
    field's components.
    """
    m = triple.m
    a = triple.algebra
    da = a.dim
    if field.dim < m:
        raise ShapeMismatch("field lives on fewer coordinates than the base")
    q = field.dim - m
    base_exprs = field.components.exprs[:m]
    for e in base_exprs:
        if max_var(e) >= m:
            raise NonProjectable("base components must depend on x only")

    d = dual_algebra()
    xs = [Var(i) for i in range(m)]
    xdot, m_dual = moving_frame_dual(triple, base_exprs)

    # the moving point and its velocity over A
    base_elems = base_block(triple, xs)
    fiber_elems = [
        AlgebraElement(a, [Var(m + f_i * da + j) for j in range(da)])
        for f_i in range(q)
    ]
    env = base_elems + fiber_elems
    vel = lift_elements(a, field.components, env)

    body = [e if isinstance(e, Expr) else Const(float(e)) for e in xdot]
    for f_i in range(q):
        val_coeffs = env[m + f_i].coeffs
        vel_coeffs = vel[m + f_i].coeffs
        z_dual = [
            AlgebraElement(d, [val_coeffs[j], vel_coeffs[j]]) for j in range(da)
        ]
        z_norm = _apply_generic_matrix(m_dual, z_dual)
        for j in range(da):
            entry = z_norm[j]
            eps = entry.coeffs[1] if isinstance(entry, AlgebraElement) else 0.0
            body.append(eps if isinstance(eps, Expr) else Const(float(eps)))
    return VectorField(m + q * da, Program(m + q * da, body))


def check_bracket_preserved(triple: FunctorTriple, x1: VectorField, x2: VectorField, samples: int = 30, rng=None, tol: float = 1e-6) -> dict:
    """Prolonging the bracket equals the bracket of the prolongations."""
    if rng is None:
        rng = np.random.default_rng(0)
    if x1.dim != x2.dim:
        raise ShapeMismatch("fields live on different spaces")
    g1 = g_field_prolong(triple, x1)
    g2 = g_field_prolong(triple, x2)
    lhs = g_field_prolong(triple, bracket(x1, x2))

    def deviations():
        for trial in range(samples):
            p = rng.uniform(-1.0, 1.0, size=lhs.dim)
            args = [float(v) for v in p]
            want = np.array(evaluate(lhs.components, args))
            got = bracket_value(g1, g2, args)
            yield {"trial": trial}, float(np.abs(want - got).max(initial=0.0))

    return tally(deviations(), tol)


def check_jet_group(m: int, r: int, samples: int = 40, rng=None, tol: float = 1e-10) -> dict:
    """Group axioms with exact rational jets; action homomorphism on floats."""
    if rng is None:
        rng = np.random.default_rng(0)
    ident = identity_jet(m, r)

    def deviations():
        # exact axioms yield only their failures, as categorical entries
        for trial in range(samples):
            ja = random_rational_jet(rng, m, r)
            jb = random_rational_jet(rng, m, r)
            jc = random_rational_jet(rng, m, r)
            if jet_compose(jet_compose(ja, jb), jc) != jet_compose(ja, jet_compose(jb, jc)):
                yield {"trial": trial, "axiom": "associativity"}, None
            if jet_compose(ja, ident) != ja or jet_compose(ident, ja) != ja:
                yield {"trial": trial, "axiom": "identity"}, None
            inv = jet_invert(ja)
            if jet_compose(ja, inv) != ident or jet_compose(inv, ja) != ident:
                yield {"trial": trial, "axiom": "inverse"}, None
        h = canonical_H(m, r)
        for trial in range(samples):
            g1 = random_jet(rng, m, r)
            g2 = random_jet(rng, m, r)
            yield {"trial": trial, "axiom": "action-homomorphism"}, float(
                np.abs(
                    h(jet_compose(g1, g2)).matrix - h(g1).matrix @ h(g2).matrix
                ).max()
            )

    return tally(deviations(), tol, samples=samples)


def check_classical_prolongation(samples: int = 20, rng=None, tol: float = 1e-8) -> dict:
    """Vertical fields on the order-1 scalar jet bundle, against the book formula.

    For the triple of truncated(1, 1) with the canonical action, a vertical
    field phi d/dy must prolong to phi d/dy + (phi_x + y1 phi_y) d/dy1.
    The partial derivatives of phi come from a finite-difference oracle, so
    the comparison is independent of the dual-number machinery.
    """
    from .programs import jacobian_oracle, random_poly_program

    if rng is None:
        rng = np.random.default_rng(0)
    triple = jet_triple(1, 1)

    def deviations():
        for trial in range(samples):
            phi = random_poly_program(rng, 2, 1, deg=3, scale=0.6)
            field = VectorField(2, Program(2, [Const(0.0), phi.exprs[0]]))
            gf = g_field_prolong(triple, field)
            x, y, y1 = rng.uniform(-1.0, 1.0, size=3)
            got = np.array(evaluate(gf.components, [x, y, y1]))
            val = evaluate(phi, [x, y])[0]
            grad = jacobian_oracle(phi, [x, y], richardson=True)[0]
            want = np.array([0.0, val, grad[0] + y1 * grad[1]])
            yield {"trial": trial}, float(np.abs(got - want).max(initial=0.0))

    return tally(deviations(), tol)
