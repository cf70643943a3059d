"""Jet groups, functor triples, frames, and prolongation to jet-like bundles.

A jet group element is an invertible r-jet at 0 of a map R^m -> R^m fixing
0, stored as coefficients over the positive-degree graded monomials.  Its
m components are nilpotent elements of the Weil algebra truncated(m, r),
and the group runs on that algebra's products: the table of x^alpha at a
jet's components, built degree by degree, gives composition (substitute
the outer jet's coefficients), the inverse (a fixed point over the table)
and the canonical action (one column per monomial).  The group product
exposed here is jet_compose(a, b) = "a then b" (the function composition of
b after a, truncated at degree r).

Actions on algebras: the canonical action on truncated(m, r) is
precomposition of function jets by the group element, which makes
H(jet_compose(a, b)) = H(a) compose H(b) with the product above.  A functor
triple (A, H, t) packages an algebra, such an action, and an equivariant
homomorphism t from truncated(m, r) into A; make_triple validates its
invariants on sampled jet pairs, stacked into float64 column jets and run
once through the action code of check_jet_group.

Frames over R^m are pairs (x, g): the jet of y -> x + g(y).  The canonical
frame at x has g = id.  Points of the associated bundle are normalized to
the canonical frame; moving a frame by g on the right moves the fiber
value by H(g inverse).

Prolongation of a base field to frames is the r-jet of the field along the
frame map; prolongation of a projectable field to the associated bundle
differentiates the normalization map with a nilpotent dual parameter, so
the quotient differential is exact rather than finite-differenced.  That
prolongation is written once, in functional.g_functional: a fibre R^q is
the functional fibre of maps from a point, and g_field_prolong hands its
field over in that form; this module supplies the frame correction.  Carrier
generic scalars (floats, Fractions, float64 columns, GF(P) residue columns,
dual elements with expression coefficients) are the coefficients of those
algebra elements, so the same products and inverse serve every carrier,
which is what makes that trick a one-liner instead of a second code path.
Rational jets stay exact: exact zeros are skipped, never replaced by the
float 0.0.  check_jet_group stacks its trials into columns, entry t for
trial t, and runs each axiom once for all of them; its rational jets become
residues mod P.  An identity that fails over Q then fails mod P unless P
divides a numerator of the difference (Schwartz, JACM 27, 1980); the
Fraction path stays the reference over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations

import numpy as np

from ._monomials import degree, monomial_index, monomials
from .algebra import (
    AlgebraElement,
    AlgebraHom,
    WeilAlgebra,
    apply_matrix,
    identity_hom,
    make_basic,
)
from .errors import (
    InvariantViolation,
    NonProjectable,
    ShapeMismatch,
    SingularLinearPart,
)
from .exprs import Const, Expr, Var, max_var
from .functor import lift_elements
from .programs import (
    Program,
    VectorField,
    evaluate_points,
    jacobian_oracle,
    poly_template,
    sampled_deviations,
    stack_columns,
    trial_rows,
)
from .prolong import bracket_gaps, field_prolong
from .scalars import apply_primitive
from .reports import tally
from .strongdiff import bracket

_MIN_DET = 1e-12
# tolerance of make_triple's sampled invariants
TRIPLE_TOL = 1e-10
# modulus of the exact group axioms: a product of two residues fits in int64
P = 2**31 - 1
# resolution of flow_frame_oracle, certified for the 1e-5 frame-prolong bound
FLOW_RK_STEP = 1e-3
FLOW_FD_STEP = 1e-4
FLOW_GRID = 1e-3


# -- carrier-generic scalar helpers --------------------------------------


class Residues:
    """A column of GF(P) residues, entry t for trial t: an exact carrier.

    Mixes with ints only.  A float raises TypeError, so a stray 0.0 or a
    structure constant other than 1 fails loudly instead of rounding.
    """

    __slots__ = ("v",)

    def __init__(self, v: np.ndarray):
        self.v = v

    @staticmethod
    def _of(x):
        if isinstance(x, Residues):
            return x.v
        if isinstance(x, int):
            return x % P
        raise TypeError("a residue column does not mix with %s" % type(x).__name__)

    def __add__(self, other):
        return Residues((self.v + self._of(other)) % P)

    __radd__ = __add__

    def __sub__(self, other):
        return Residues((self.v - self._of(other)) % P)

    def __rsub__(self, other):
        return Residues((self._of(other) - self.v) % P)

    def __mul__(self, other):
        return Residues(self.v * self._of(other) % P)

    __rmul__ = __mul__

    def __neg__(self):
        return Residues(-self.v % P)


def _is_exact_zero(x) -> bool:
    return isinstance(x, (int, float, Fraction)) and not x


def _scalar_size(x):
    """|x| as a float when the carrier admits one; None for symbolic scalars
    and residue columns."""
    if isinstance(x, AlgebraElement):
        x = x.coeffs[x.algebra.unit_index]
    if isinstance(x, (Expr, Residues)):
        return None
    try:
        return abs(float(x))
    except (TypeError, ValueError):
        return None


def _scalar_recip(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    if isinstance(x, Residues):
        if not x.v.all():
            raise SingularLinearPart("determinant is 0 mod %d" % P)
        return Residues(np.array([pow(int(v), -1, P) for v in x.v], dtype=np.int64))
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


# -- jet group ------------------------------------------------------------


class JetGroupElement:
    """Invertible r-jet at 0 of a map R^m -> R^m fixing 0.

    coeffs[i][k] is the coefficient of the k-th positive-degree graded
    monomial in component i, so component i is the nilpotent element
    (0, *coeffs[i]) of truncated(m, r); jet_compose, jet_invert and the
    canonical action multiply those elements.  Scalars are carrier generic.
    The constructor checks shapes only: jet_invert is the one place that
    refuses a singular linear part.
    """

    __slots__ = ("m", "r", "coeffs")

    def __init__(self, m: int, r: int, coeffs):
        if m < 1 or r < 1:
            raise ShapeMismatch("a jet needs m >= 1 and r >= 1, got m=%d, r=%d" % (m, r))
        n_mon = len(monomials(m, r, 1))
        coeffs = tuple(tuple(row) for row in coeffs)
        if len(coeffs) != m or any(len(row) != n_mon for row in coeffs):
            raise ShapeMismatch(
                "jet needs %d rows of %d coefficients" % (m, n_mon)
            )
        self.m = m
        self.r = r
        self.coeffs = coeffs

    def linear_part(self):
        # the first m graded monomials are the degree-1 ones, variable i at slot i
        return [[self.coeffs[i][j] for j in range(self.m)] for i in range(self.m)]

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
    return JetGroupElement(m, r, coeffs)


@lru_cache(maxsize=None)
def _factor_plan(m: int, r: int) -> tuple:
    """(parent, i) per positive-degree monomial alpha, with i its last variable.

    parent is the slot of alpha - e_i among the positive-degree monomials, or
    None when alpha = e_i.
    """
    index = monomial_index(m, r)
    plan = []
    for alpha in monomials(m, r, 1):
        i = max(k for k, e in enumerate(alpha) if e)
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        plan.append((index[beta] - 1 if degree(beta) else None, i))
    return tuple(plan)


def _power_table(g: JetGroupElement) -> list:
    """x^alpha at g's components, one element per positive-degree monomial.

    Built degree by degree as x^alpha = x^(alpha - e_i) * u_i inside
    truncated(m, r); the product truncates at degree r.
    """
    algebra = make_basic("truncated", g.m, g.r)
    # component i is (0, *g.coeffs[i]); exact zeros become the float 0.0,
    # which products skip
    comps = [
        AlgebraElement(algebra, [0.0] + [0.0 if _is_exact_zero(c) else c for c in row])
        for row in g.coeffs
    ]
    table = []
    for parent, i in _factor_plan(g.m, g.r):
        table.append(comps[i] if parent is None else table[parent] * comps[i])
    return table


def _combine(weights, vectors) -> list:
    """sum_j weights[j] * vectors[j] over coefficient vectors, entry by entry.

    The entries are carrier scalars, so a weight scales coefficients, never
    a whole element: a dual-number weight and an element of truncated(1, 1)
    live in different algebras, however alike their tables, and their
    product raises AlgebraMismatch.  Exact zeros are skipped, and a slot
    that no term reaches is the int 0, so rational jets stay exact.
    """
    acc = [None] * len(vectors[0])
    for c, vec in zip(weights, vectors):
        if _is_exact_zero(c):
            continue
        for k, v in enumerate(vec):
            if not _is_exact_zero(v):
                term = v * c
                acc[k] = term if acc[k] is None else acc[k] + term
    return [0 if v is None else v for v in acc]


def jet_compose(a: JetGroupElement, b: JetGroupElement) -> JetGroupElement:
    """The group product "a then b": truncated composition of b after a."""
    if a.m != b.m or a.r != b.r:
        raise ShapeMismatch("jets have different (m, r)")
    table = [t.coeffs[1:] for t in _power_table(a)]
    return JetGroupElement(a.m, a.r, [_combine(row, table) for row in b.coeffs])


def jet_invert(a: JetGroupElement) -> JetGroupElement:
    """Group inverse, solved degree by degree.

    With a = L + N (linear plus higher), the fixed point of
    B <- Linv(id - N(B)) gains one correct degree per pass, so r - 1 passes
    after the linear seed suffice.
    """
    m, r = a.m, a.r
    linv = _matinv_generic(a.linear_part())
    ident = identity_jet(m, r).coeffs
    b = JetGroupElement(m, r, [_combine(row, ident) for row in linv])
    if r >= 2:
        ntilde = [(0,) * m + row[m:] for row in a.coeffs]
        for _ in range(r - 1):
            table = [t.coeffs[1:] for t in _power_table(b)]
            resid = [
                [e - v for e, v in zip(ident[i], _combine(ntilde[i], table))]
                for i in range(m)
            ]
            b = JetGroupElement(m, r, [_combine(row, resid) for row in linv])
    return b


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
    return JetGroupElement(m, r, coeffs)


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
        jet = JetGroupElement(m, r, coeffs)
        if _det_generic(jet.linear_part()) != 0:
            return jet


# -- actions on algebras ---------------------------------------------------


class CanonicalAction:
    """Precompose-by-g on the coefficient space of truncated(m, r).

    Column alpha of the matrix holds the expansion of the monomial x^alpha
    composed with g.  With the product jet_compose this is a left action:
    H(jet_compose(a, b)) = H(a) compose H(b).
    """

    __slots__ = ("m", "r", "algebra")

    def __init__(self, m: int, r: int):
        self.m = m
        self.r = r
        self.algebra = make_basic("truncated", m, r)

    def matrix_generic(self, g: JetGroupElement):
        if g.m != self.m or g.r != self.r:
            raise ShapeMismatch("jet shape does not match the action")
        cols = [(1,) + (0,) * (self.algebra.dim - 1)]
        cols += [t.coeffs for t in _power_table(g)]
        return [list(row) for row in zip(*cols)]


@lru_cache(maxsize=None)
def canonical_H(m: int, r: int) -> CanonicalAction:
    return CanonicalAction(m, r)


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
    action, on 200 pairs drawn from a fixed seed, to within TRIPLE_TOL.
    The pairs run as column jets through the action code of
    check_jet_group, and each test runs once for all of them.  Sampling
    can only refute, not prove; reports say so.
    """
    if t.source != make_basic("truncated", m, r):
        raise ShapeMismatch("t must start at truncated(%d,%d)" % (m, r))
    if t.target != algebra:
        raise ShapeMismatch("t must land in the triple's algebra")

    ident_dev = float(np.abs(np.array(H.matrix_generic(identity_jet(m, r)), dtype=float) - np.eye(algebra.dim)).max())
    if not ident_dev <= TRIPLE_TOL:
        raise InvariantViolation("H(id) is not the identity", worst=ident_dev)

    rng = np.random.default_rng(0)
    pairs = [(random_jet(rng, m, r), random_jet(rng, m, r)) for _ in range(200)]
    g1, m1, hom_dev = _action_homomorphism(H, m, r, pairs)
    if not (np.abs(np.linalg.det(m1)) >= _MIN_DET).all():
        raise InvariantViolation("sampled H(g) is singular")
    equi_dev = np.abs(t.matrix @ _action_matrix(canonical_H(m, r), g1, len(pairs)) - m1 @ t.matrix)
    worst = float(np.maximum(hom_dev.max(), equi_dev.max()))
    if not worst <= TRIPLE_TOL:
        raise InvariantViolation("sampled action invariants fail at %g" % worst, worst=worst)
    return FunctorTriple(algebra, H, t, m, r)


@lru_cache(maxsize=None)
def jet_triple(m: int, r: int) -> FunctorTriple:
    """The triple (truncated(m,r), canonical action, identity)."""
    h = canonical_H(m, r)
    return make_triple(h.algebra, h, identity_hom(h.algebra), m, r)


# -- frames ---------------------------------------------------------------


def frame_to_flat(x, jet: JetGroupElement) -> np.ndarray:
    """The frame (x, jet) in the coordinate-major layout of the lifted space
    over truncated(m,r): row i holds x_i, then jet component i."""
    return np.column_stack([x, jet.as_array()]).reshape(-1)


def _monomial_values(y, monos) -> np.ndarray:
    """y^alpha for each alpha in monos."""
    return np.array([np.prod(y ** np.array(a)) for a in monos])


def frame_evaluate(x, jet: JetGroupElement, y) -> np.ndarray:
    """The frame's polynomial map at y: x + g(y)."""
    vals = _monomial_values(np.asarray(y, dtype=float), monomials(jet.m, jet.r, 1))
    return x + jet.as_array() @ vals


def frame_prolong(xi: VectorField, r: int) -> VectorField:
    """The frame-space field: value at a frame is the r-jet of xi along it.

    Rendered on the coordinate-major flat layout of frame_to_flat; the x
    block is driven by the degree-0 coefficients, the group block by the
    rest.
    """
    dmr = make_basic("truncated", xi.dim, r)
    return field_prolong(dmr, xi).rendering


@lru_cache(maxsize=None)
def _flow_tables(m: int, r: int):
    """The flow oracle's constant tables at (m, r): the design matrix over
    the dimensionless grid, its column rescaling, and the frame map's
    monomial values at each grid point (rows of one array, read-only)."""
    monos = monomials(m, r)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    scaled = np.stack(np.meshgrid(*([offsets] * m)), axis=-1).reshape(-1, m)
    design = np.array([_monomial_values(y, monos) for y in scaled])
    rescale = np.array([FLOW_GRID ** degree(a) for a in monos])
    vals = np.array([_monomial_values(y, monomials(m, r, 1)) for y in scaled * FLOW_GRID])
    for table in (design, rescale, vals):
        table.flags.writeable = False
    return design, rescale, vals


def flow_frame_oracle(xi: VectorField, r: int, flat) -> np.ndarray:
    """Finite-difference flow prolongation, used only as a test oracle.

    Integrates sample points of the frame map downstairs with RK4 in steps
    of FLOW_RK_STEP, refits the jet coefficients on a grid of spacing
    FLOW_GRID, and central-differences in time with step FLOW_FD_STEP.
    Independent of the jet arithmetic above.  The grid must stay small:
    degree r+2 terms of the flow alias onto lower coefficients at rate
    grid^2, which is the oracle's dominant systematic error.

    The G grid points step as one (G, m) block, each stage one
    `evaluate_points` run of xi; every step is elementwise, so each point
    rounds as it does on its own, and the fit sees the same images.  The
    grid tables depend only on (m, r) and are built once.
    """
    m = xi.dim
    block = np.asarray(flat, dtype=float).reshape(m, -1)
    design, rescale, vals = _flow_tables(m, int(r))
    # one product per grid point, with a single point's C-ordered layout:
    # a matrix product rounds by layout
    x, jet = block[:, 0], np.ascontiguousarray(block[:, 1:])
    starts = np.array([x + jet @ v for v in vals])

    def rk4_to(z: np.ndarray, t: float) -> np.ndarray:
        f = partial(evaluate_points, xi.components)
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
        images = rk4_to(starts, sign * FLOW_FD_STEP)
        coeff, _, _, _ = np.linalg.lstsq(design, images, rcond=None)
        fits.append(coeff / rescale[:, None])  # (n_monos, m)
    deriv = (fits[0] - fits[1]) / (2.0 * FLOW_FD_STEP)
    return deriv.T.reshape(-1)


def check_frame_prolong(xi: VectorField, r: int, *, rng, samples: int, tol: float) -> dict:
    """Frame prolongation against the flow finite-difference oracle.

    The trial frames are drawn first, in trial order, and the rendered
    field runs at all of them as one block.
    """
    m = xi.dim
    field = frame_prolong(xi, r)
    flats = np.array([frame_to_flat(rng.uniform(-1.0, 1.0, size=m), random_jet(rng, m, r)) for _ in range(samples)])

    def gaps(pts):
        # the oracle integrates one frame at a time
        want = np.reshape([flow_frame_oracle(xi, r, flat) for flat in pts.reshape(-1, field.dim)], pts.shape)
        return np.abs(evaluate_points(field.components, pts) - want).max(axis=-1, initial=0.0)

    return tally(sampled_deviations([(0, flats)], gaps, samples), tol)


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


def moving_frame_dual(triple: FunctorTriple, xi: Program):
    """First-order frame correction for fields written at the canonical frame.

    Returns the H-matrix, with dual-number entries over symbolic base
    coordinates, of the inverse of the moving frame jet id + eps*gdot.
    Applying it to dual pairs (value, raw velocity) and keeping the epsilon
    parts renormalizes a fiber velocity back to the canonical frame.
    """
    m, r = triple.m, triple.r
    dmr = triple.jet_algebra
    d = make_basic("dual")
    xs = [Var(i) for i in range(m)]

    # r-jet of the base field xi along the canonical frame
    jets = lift_elements(dmr, xi, _canonical_frame_elements(dmr, xs))

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
    g_dual = JetGroupElement(m, r, g_dual_rows)
    return triple.H.matrix_generic(jet_invert(g_dual))


def g_field_prolong(triple: FunctorTriple, field: VectorField) -> VectorField:
    """Prolong a projectable field to normalized bundle coordinates.

    A fibered manifold with fibre R^q is the functional bundle whose fibre
    maps leave a one-point source, C^inf(pt, R^q) = R^q.  So the field is
    the order-0 functional field with q1 = 0, base part its first m
    components and vertical part the rest, and the result stacks that base
    part on the vertical body g_functional builds, on R^{m + q*dimA}.  The
    field's parameters pass, not prolonged, to the vertical part, and the
    result takes them after its coordinates.
    """
    from .functional import FunctionalVectorField, _normalized_vertical

    m = triple.m
    if field.dim < m:
        raise ShapeMismatch("field lives on fewer coordinates than the base")
    q = field.dim - m
    exprs = field.components.exprs
    for e in exprs[:m]:
        if max_var(e) >= m:
            raise NonProjectable("base components must depend on x only")
    params = field.components.params
    xi = Program(m, exprs[:m])
    body = _normalized_vertical(triple, FunctionalVectorField(m, 0, q, 0, xi, Program(field.dim, exprs[m:], params)))
    dim = m + q * triple.algebra.dim
    return VectorField(dim, Program(dim, xi.exprs + tuple(body), params))


def check_bracket_preserved(triple: FunctorTriple, x1: VectorField, x2: VectorField, *, rng, samples: int, tol: float) -> dict:
    """Prolonging the bracket equals the bracket of the prolongations."""
    if x1.dim != x2.dim:
        raise ShapeMismatch("fields live on different spaces")
    g1 = g_field_prolong(triple, x1)
    g2 = g_field_prolong(triple, x2)
    lhs = g_field_prolong(triple, bracket(x1, x2)).components
    block = rng.uniform(-1.0, 1.0, size=(samples, g1.dim))
    return tally(sampled_deviations([(0, block)], bracket_gaps(partial(evaluate_points, lhs), g1, g2), samples), tol)


def _stack(m: int, r: int, values, dtype) -> np.ndarray:
    """Coefficients of jets 0, 1, ... (values in their row order) as an
    (m, n_mon, count) array: coefficient [i][k] becomes a column."""
    n_mon = len(monomials(m, r, 1))
    return np.array(values, dtype=dtype).reshape(-1, m, n_mon).transpose(1, 2, 0).copy()


def _action_matrix(H, g: JetGroupElement, count: int) -> np.ndarray:
    """H's matrix at a jet of float64 columns as a (count, d, d) array: one
    C-ordered d x d matrix per entry, as for a single jet, whose entries
    round as the same products on that single jet do."""
    rows = H.matrix_generic(g)
    return stack_columns([v for row in rows for v in row], count).reshape(count, len(rows), -1)


def _action_homomorphism(H, m: int, r: int, pairs) -> tuple:
    """The action law H(g1 then g2) = H(g1) H(g2) on float jet pairs, all
    pairs at once: (g1 stacked into one column jet, H(g1) as from
    `_action_matrix`, the largest entry of each pair's gap).  The product
    is taken one pair at a time: a matrix product rounds by layout."""
    count = len(pairs)
    g1, g2 = (JetGroupElement(m, r, _stack(m, r, [p[k].coeffs for p in pairs], float)) for k in range(2))
    m1, m2, m12 = (_action_matrix(H, g, count) for g in (g1, g2, jet_compose(g1, g2)))
    return g1, m1, np.array([np.abs(c - a @ b).max() for a, b, c in zip(m1, m2, m12)])


def residue_jet(m: int, r: int, jets) -> JetGroupElement:
    """Rational jets stacked into one jet of residue columns, entry t for jets[t]."""
    flat = [
        c.numerator * pow(c.denominator, -1, P) % P
        for g in jets
        for row in g.coeffs
        for c in row
    ]
    cols = _stack(m, r, flat, np.int64)
    return JetGroupElement(m, r, [[Residues(c) for c in row] for row in cols])


def residue_mismatch(a: JetGroupElement, b: JetGroupElement, count: int) -> np.ndarray:
    """Per-entry mask of two residue-column jets: True where they differ mod P."""
    mask = np.zeros(count, dtype=bool)
    for row_a, row_b in zip(a.coeffs, b.coeffs):
        for x, y in zip(row_a, row_b):
            d = x - y
            mask |= d.v != 0 if isinstance(d, Residues) else d != 0
    return mask


def check_jet_group(m: int, r: int, *, rng, samples: int, tol: float) -> dict:
    """Group axioms exact mod P on rational jets; action homomorphism on floats.

    The trials are drawn one by one, as (ja, jb, jc) per trial and then
    (g1, g2) per trial, and stacked into columns: residue columns for the
    rational jets, so each axiom runs once for all trials and yields a
    per-trial mask, and float64 columns for the action, whose entries round
    as the same products on single jets do.
    """
    ident = identity_jet(m, r)

    def deviations():
        trials = [[random_rational_jet(rng, m, r) for _ in range(3)] for _ in range(samples)]
        ja, jb, jc = (residue_jet(m, r, [t[k] for t in trials]) for k in range(3))
        inv = jet_invert(ja)

        def differs(x, y):
            return residue_mismatch(x, y, samples)

        failed = {
            "associativity": differs(
                jet_compose(jet_compose(ja, jb), jc), jet_compose(ja, jet_compose(jb, jc))
            ),
            "identity": differs(jet_compose(ja, ident), ja) | differs(jet_compose(ident, ja), ja),
            "inverse": differs(jet_compose(ja, inv), ident) | differs(jet_compose(inv, ja), ident),
        }
        # exact axioms yield only their failures, as categorical entries
        for trial in range(samples):
            for axiom, mask in failed.items():
                if mask[trial]:
                    yield {"trial": trial, "axiom": axiom}, None
        pairs = [(random_jet(rng, m, r), random_jet(rng, m, r)) for _ in range(samples)]
        hom_dev = _action_homomorphism(canonical_H(m, r), m, r, pairs)[2]
        for trial in range(samples):
            yield {"trial": trial, "axiom": "action-homomorphism"}, float(hom_dev[trial])

    return tally(deviations(), tol, samples=samples)


def check_classical_prolongation(*, rng, samples: int, tol: float) -> dict:
    """Vertical fields on the order-1 scalar jet bundle, against the book formula.

    For the triple of truncated(1, 1) with the canonical action, a vertical
    field phi d/dy must prolong to phi d/dy + (phi_x + y1 phi_y) d/dy1.
    The partial derivatives of phi come from a finite-difference oracle, so
    the comparison is independent of the dual-number machinery.  phi is a
    cubic template, prolonged once.
    """
    phi = poly_template(2, 1, 3)
    gf = g_field_prolong(jet_triple(1, 1), VectorField(2, Program(2, [Const(0.0), phi.exprs[0]], phi.params)))
    # a trial draws phi's coefficients, then (x, y, y1): its row is (x, y, y1, coefficients)
    rows = np.roll(trial_rows(rng, samples, (-0.6, 0.6, phi.params), (-1.0, 1.0, 3)), -phi.params, axis=1)

    def gaps(pts):
        got = evaluate_points(gf.components, pts)
        xy = np.delete(pts, 2, axis=-1)  # x, y and phi's coefficients
        grad = jacobian_oracle(phi, xy, richardson=True)[..., 0, :]
        want = np.broadcast_arrays(0.0, evaluate_points(phi, xy)[..., 0], grad[..., 0] + pts[..., 2] * grad[..., 1])
        return np.abs(got - np.stack(want, axis=-1)).max(axis=-1, initial=0.0)

    return tally(sampled_deviations([(0, rows)], gaps, samples), tol)
