"""Second tangents, the strong difference of compatible pairs, and brackets.

Second tangents over R^n live over the four-dimensional algebra
DD = tensor(dual, dual).  We keep the left tensor factor as the outer
tangent direction throughout and store second tangents in slot order
(base, u, v, w) where u is the outer coefficient, v the inner one and w
the mixed one.  Against the DD basis [1, 1*e, e*1, e*e] that means the
slot-to-index map (0, 2, 1, 3).

Two second tangents X, Y with equal bases and crosswise equal u/v parts
form a compatible pair.  Such a pair is one point over a five-dimensional
subalgebra of sum(DD, DD); a homomorphism sigma from that subalgebra onto
the dual numbers sends the pair to the tangent vector (base, w(X) - w(Y)),
the strong difference.

The bracket of two fields is the strong difference of the two composite
second tangents (lift of Y applied to X, and vice versa), which works out
to DY.X - DX.Y; that orientation is fixed here once and checked against a
finite-difference Jacobian oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    WeilAlgebra,
    apply_matrix,
    exchange,
    hom_tensor,
    make_basic,
    make_hom,
    rho,
    subalgebra,
    sum_algebra,
    swap_matrix,
    tensor,
)
from .errors import IncompatiblePair, ShapeMismatch
from .exprs import Const, Expr, Var
from .functor import WeilPoint, transform
from .programs import (
    Program,
    VectorField,
    eval_exprs,
    evaluate,
    evaluate_dual,
    jacobian_oracle,
    random_poly_field,
    run_columns,
    stack_columns,
)
from .reports import tally

_SLOT_TO_DD = (0, 2, 1, 3)

_dual_cache = None
_dd_cache = None
_s_cache = None
# keyed by structure, not by id(): an id can be reused once its algebra is freed
_exchange_cache: dict[tuple, tuple] = {}


def dual_algebra() -> WeilAlgebra:
    global _dual_cache
    if _dual_cache is None:
        _dual_cache = make_basic("dual")
    return _dual_cache


def dd_algebra() -> WeilAlgebra:
    global _dd_cache
    if _dd_cache is None:
        d = dual_algebra()
        _dd_cache = tensor(d, d)
    return _dd_cache


class SecondTangent:
    """A second tangent on R^dim in (base, u, v, w) slots, floats only."""

    __slots__ = ("dim", "base", "u", "v", "w")

    def __init__(self, base, u, v, w):
        arrs = [np.asarray(x, dtype=float).reshape(-1) for x in (base, u, v, w)]
        n = arrs[0].shape[0]
        if any(a.shape[0] != n for a in arrs):
            raise ShapeMismatch("second tangent slots must have equal length")
        self.dim = n
        self.base, self.u, self.v, self.w = arrs

    @classmethod
    def from_point(cls, p: WeilPoint) -> "SecondTangent":
        if not p.algebra.same_structure(dd_algebra()):
            raise ShapeMismatch("second tangents live over tensor(dual, dual)")
        arr = p.coefficient_array()
        return cls(arr[:, 0], arr[:, 2], arr[:, 1], arr[:, 3])

    def to_point(self) -> WeilPoint:
        dd = dd_algebra()
        slots = (self.base, self.u, self.v, self.w)
        coords = []
        for i in range(self.dim):
            coeffs = [0.0] * 4
            for s in range(4):
                coeffs[_SLOT_TO_DD[s]] = float(slots[s][i])
            coords.append(AlgebraElement(dd, coeffs))
        return WeilPoint(dd, coords)

    def __repr__(self):
        return "SecondTangent(dim=%d)" % self.dim


def compatible(x: SecondTangent, y: SecondTangent, tol: float = 1e-9) -> bool:
    """Equal bases, and the outer part of each is the inner part of the other."""
    if x.dim != y.dim:
        return False
    dev = max(
        np.abs(x.base - y.base).max(initial=0.0),
        np.abs(x.u - y.v).max(initial=0.0),
        np.abs(x.v - y.u).max(initial=0.0),
    )
    return dev <= tol


class SPair:
    """A compatible pair of second tangents; constructor enforces membership."""

    __slots__ = ("x", "y", "dim")

    def __init__(self, x: SecondTangent, y: SecondTangent, tol: float = 1e-9):
        if not compatible(x, y, tol):
            raise IncompatiblePair("pair fails the base and u/v matching conditions")
        self.x = x
        self.y = y
        self.dim = x.dim

    def coords5(self) -> np.ndarray:
        """(dim, 5) array in the subalgebra basis 1, e1+E2, e2+E1, e1e2, E1E2."""
        return np.stack([self.x.base, self.x.u, self.x.v, self.x.w, self.y.w], axis=1)


class SAlgebraBundle:
    """The pair algebra, its ambient presentation, inclusion and sigma."""

    __slots__ = ("algebra", "ambient", "inclusion", "sigma")

    def __init__(self, algebra, ambient, inclusion, sigma):
        self.algebra = algebra
        self.ambient = ambient
        self.inclusion = inclusion
        self.sigma = sigma


def make_S() -> SAlgebraBundle:
    """Build the compatible-pair algebra inside sum(DD, DD).

    Basis: unit, e1+E2, e2+E1, e1e2, E1E2 (capitals are the second copy).
    sigma maps the unit to 1, the two mixed elements to +e and -e, and the
    middle generators to zero; on a compatible pair it therefore returns
    base and w(X) - w(Y).
    """
    dd = dd_algebra()
    amb = sum_algebra(dd, dd)
    # ambient nilpotent order: 1*e, e*1, e*e for each copy in turn
    span = np.zeros((5, 7))
    span[0, 0] = 1.0
    span[1, 2] = 1.0  # e1
    span[1, 4] = 1.0  # E2
    span[2, 1] = 1.0  # e2
    span[2, 5] = 1.0  # E1
    span[3, 3] = 1.0  # e1e2
    span[4, 6] = 1.0  # E1E2
    sub, inc = subalgebra(
        amb, span, labels=("1", "e1+E2", "e2+E1", "e1e2", "E1E2"), name="S"
    )
    sigma_matrix = np.array(
        [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]
    )
    sigma = make_hom(sub, dual_algebra(), sigma_matrix)
    return SAlgebraBundle(sub, amb, inc, sigma)


def s_bundle() -> SAlgebraBundle:
    global _s_cache
    if _s_cache is None:
        _s_cache = make_S()
    return _s_cache


def strong_diff(x, y=None):
    """Tangent vector (base, w(X) - w(Y)), computed through sigma.

    Accepts either an SPair or two second tangents; the latter form raises
    IncompatiblePair when the pair conditions fail.
    """
    pair = x if y is None else SPair(x, y)
    out = pair.coords5() @ s_bundle().sigma.matrix.T
    return out[:, 0], out[:, 1]


# -- brackets ------------------------------------------------------------


def _eps_expr(v) -> Expr:
    if isinstance(v, AlgebraElement):
        c = v.coeffs[1]
        return c if isinstance(c, Expr) else Const(c)
    return Const(0.0)


def composite_pair(x_field: VectorField, y_field: VectorField, at) -> SPair:
    """The compatible pair (lift of Y along X, lift of X along Y) at a point.

    For a (B, n) block of points the tapes run over columns and the pair
    lives on R^{B*n}, point p's coordinates at p*n .. p*n + n - 1.
    """
    if x_field.dim != y_field.dim:
        raise ShapeMismatch("fields live on different spaces")
    count = len(at) if np.ndim(at) == 2 else None
    if count is None:
        at = [float(v) for v in at]
        args = at
    else:
        at = np.asarray(at, dtype=float)
        args = list(at.T)
    xv = evaluate(x_field.components, args)
    yv = evaluate(y_field.components, args)
    _, dyx = evaluate_dual(y_field.components, args, xv)
    _, dxy = evaluate_dual(x_field.components, args, yv)
    if count is not None:
        xv, yv, dyx, dxy = (stack_columns(v, count) for v in (xv, yv, dyx, dxy))
    first = SecondTangent(at, xv, yv, dyx)
    second = SecondTangent(at, yv, xv, dxy)
    return SPair(first, second)


def bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """The bracket as a symbolic field, assembled through sigma."""
    if x_field.dim != y_field.dim:
        raise ShapeMismatch("fields live on different spaces")
    n = x_field.dim
    d = dual_algebra()
    xs = [Var(i) for i in range(n)]
    xv = eval_exprs(x_field.components.exprs, xs)
    yv = eval_exprs(y_field.components.exprs, xs)
    env_x = [AlgebraElement(d, [xs[i], xv[i]]) for i in range(n)]
    env_y = [AlgebraElement(d, [xs[i], yv[i]]) for i in range(n)]
    w_yx = [_eps_expr(v) for v in evaluate(y_field.components, env_x)]
    w_xy = [_eps_expr(v) for v in evaluate(x_field.components, env_y)]
    sigma = s_bundle().sigma.matrix
    body = []
    for i in range(n):
        vec5 = [xs[i], xv[i], yv[i], w_yx[i], w_xy[i]]
        out = apply_matrix(sigma, vec5)[1]
        body.append(out if isinstance(out, Expr) else Const(out))
    return VectorField(n, Program(n, body))


def bracket_value(x_field: VectorField, y_field: VectorField, at) -> np.ndarray:
    """Pointwise bracket via float dual numbers; no expression trees built.

    `at` is one point, or a (B, n) block of points that runs as columns
    through `run_columns` and gives a (B, n) array.
    """

    def value(pts):
        _, vec = strong_diff(composite_pair(x_field, y_field, pts))
        return vec.reshape(np.shape(pts))

    if np.ndim(at) == 2:
        return run_columns(at, value, value)
    return value(at)


# -- second tangents with algebra coefficients ---------------------------


class ASecondPair:
    """A compatible pair of algebra-coefficient second tangents.

    Coefficients are stored as (n, 4, algebra.dim) float arrays in slot
    order (base, u, v, w); compatibility is checked coefficient-wise, to
    within 1e-9.
    """

    __slots__ = ("algebra", "n", "x", "y")

    def __init__(self, algebra: WeilAlgebra, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 3 or x.shape[1] != 4 or x.shape[2] != algebra.dim:
            raise ShapeMismatch("expected (n, 4, dim) slot arrays")
        if y.shape != x.shape:
            raise ShapeMismatch("the two sides must have equal shapes")
        dev = max(
            np.abs(x[:, 0] - y[:, 0]).max(initial=0.0),
            np.abs(x[:, 1] - y[:, 2]).max(initial=0.0),
            np.abs(x[:, 2] - y[:, 1]).max(initial=0.0),
        )
        if dev > 1e-9:
            raise IncompatiblePair("pair mismatch of size %g" % dev)
        self.algebra = algebra
        self.n = x.shape[0]
        self.x = x
        self.y = y


def _exchange_homs(algebra: WeilAlgebra):
    key = (algebra.dim, algebra.unit_index, algebra.structure.tobytes())
    hit = _exchange_cache.get(key)
    if hit is None:
        dd = dd_algebra()
        tad = tensor(algebra, dd)
        exch = exchange(algebra, dd, source=tad)
        hit = (tad, exch)
        _exchange_cache[key] = hit
    return hit


def _side_to_points(pair: ASecondPair, arr: np.ndarray, tad: WeilAlgebra) -> WeilPoint:
    da = pair.algebra.dim
    coords = []
    for i in range(pair.n):
        coeffs = [0.0] * (da * 4)
        for s in range(4):
            dd_idx = _SLOT_TO_DD[s]
            for a in range(da):
                coeffs[a * 4 + dd_idx] = arr[i, s, a]
        coords.append(AlgebraElement(tad, coeffs))
    return WeilPoint(tad, coords)


def k_map(pair: ASecondPair) -> SPair:
    """Reinterpret an algebra-coefficient pair as a pair on the lifted space.

    Routed through the exchange homomorphism tensor(A, DD) -> tensor(DD, A);
    the result uses the coordinate-major flat layout (i, a) -> i*dim + a.
    """
    tad, exch = _exchange_homs(pair.algebra)
    da = pair.algebra.dim
    sides = []
    for arr in (pair.x, pair.y):
        q = transform(exch, _side_to_points(pair, arr, tad))
        qa = q.coefficient_array()
        blocks = [qa[:, dd * da : (dd + 1) * da].reshape(-1) for dd in range(4)]
        sides.append(
            SecondTangent(blocks[0], blocks[_SLOT_TO_DD[1]], blocks[_SLOT_TO_DD[2]], blocks[3])
        )
    return SPair(sides[0], sides[1], tol=0.0)


# -- diagram checks ------------------------------------------------------


def check_exchange_square(algebra: WeilAlgebra, n: int = 2, samples: int = 20, rng=None, tol: float = 1e-12) -> dict:
    """Strong difference commutes with the coefficient-exchange route.

    Path one reinterprets the pair on the lifted space and takes the strong
    difference there.  Path two applies sigma inside the tensor coefficients
    and then exchanges factors.  Both must agree within tol, and the
    reinterpreted pair must satisfy the membership conditions exactly.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    bundle = s_bundle()
    da = algebra.dim
    tas = tensor(algebra, bundle.algebra)
    sig_a = hom_tensor(bundle.sigma, algebra, source=tas)
    exch = exchange(algebra, dual_algebra(), source=sig_a.target)

    def deviations():
        for trial in range(samples):
            arr = rng.uniform(-1.0, 1.0, size=(n, 5, da))
            x = np.stack([arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]], axis=1)
            y = np.stack([arr[:, 0], arr[:, 2], arr[:, 1], arr[:, 4]], axis=1)
            pair = ASecondPair(algebra, x, y)

            lifted = k_map(pair)
            if not compatible(lifted.x, lifted.y, tol=0.0):
                yield {"trial": trial, "reason": "membership"}, None
                continue
            base1, vec1 = strong_diff(lifted)

            coords = []
            for i in range(n):
                coeffs = [0.0] * (da * 5)
                for s in range(5):
                    for a in range(da):
                        coeffs[a * 5 + s] = arr[i, s, a]
                coords.append(AlgebraElement(tas, coeffs))
            q = transform(exch, transform(sig_a, WeilPoint(tas, coords)))
            qa = q.coefficient_array()
            base2 = qa[:, 0:da].reshape(-1)
            vec2 = qa[:, da : 2 * da].reshape(-1)

            yield {"trial": trial}, max(
                np.abs(base1 - base2).max(initial=0.0),
                np.abs(vec1 - vec2).max(initial=0.0),
            )

    return tally(deviations(), tol)


def check_projection_squares(a: WeilAlgebra, b: WeilAlgebra, c: WeilAlgebra) -> dict:
    """Projecting away the middle factor commutes with moving A outward.

    On A (x) B (x) C, flipping A past B and then past C followed by the real
    part of B equals taking B's real part in place and flipping A past C.
    The matrices involved are permutations and 0/1 projections, so the two
    sides must agree exactly.
    """
    da, db, dc = a.dim, b.dim, c.dim
    k_ab = swap_matrix(da, db)
    k_ac = swap_matrix(da, dc)
    rb = rho(b).matrix
    t1 = np.kron(k_ab, np.eye(dc))
    t2 = np.kron(np.eye(db), k_ac)
    lhs = np.kron(rb, np.eye(dc * da)) @ t2 @ t1
    rhs = k_ac @ np.kron(np.kron(np.eye(da), rb), np.eye(dc))
    return tally([({"identity": "projection-square"}, float(np.abs(lhs - rhs).max()))], 0.0)


def check_tangent_projection_identities(a: WeilAlgebra) -> dict:
    """Three corollary identities with both outer factors the dual numbers.

    Each expresses that killing one tangent direction before or after the
    flip gives the same map; all matrices are 0/1 so equality is exact.
    """
    d = a.dim
    i2 = np.eye(2)
    k = swap_matrix(d, 2)
    r = rho(dual_algebra()).matrix
    pairs = [
        (
            "project-outer-after-double-flip",
            np.kron(r, np.eye(2 * d)) @ np.kron(i2, k) @ np.kron(k, i2),
            k @ np.kron(np.kron(np.eye(d), r), i2),
        ),
        (
            "project-inner-then-flip",
            k @ np.kron(np.eye(d), np.kron(i2, r)),
            np.kron(i2, np.kron(np.eye(d), r)) @ np.kron(k, i2),
        ),
        (
            "flip-inside-outer-tangent",
            np.kron(i2, np.kron(r, np.eye(d))) @ np.kron(i2, k),
            np.kron(i2, np.kron(np.eye(d), r)),
        ),
    ]
    return tally((({"identity": name}, float(np.abs(lhs - rhs).max())) for name, lhs, rhs in pairs), 0.0)


def check_sigma() -> dict:
    """Rebuild the pair algebra and verify sigma column by column.

    The expected images of the basis 1, e1+E2, e2+E1, e1e2, E1E2 are
    1, 0, 0, e, -e; on top of that sigma must be multiplicative on all
    25 basis pairs.  Every quantity involved is a small integer, so the
    comparisons are exact.
    """
    s = make_S()
    want = np.array(
        [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]
    )
    d = dual_algebra()

    def deviations():
        yield {"check": "basis images"}, float(np.abs(s.sigma.matrix - want).max())
        # worked value: sigma(2 + b1 + 3 b2 + 5 b3 + 4 b4) = 2 + e
        got = s.sigma.matrix @ np.array([2.0, 1.0, 3.0, 5.0, 4.0])
        yield {"check": "worked value"}, float(np.abs(got - np.array([2.0, 1.0])).max())
        for i in range(5):
            for j in range(5):
                lhs = s.sigma.matrix @ s.algebra.structure[i, j]
                rhs = np.einsum(
                    "a,b,abk->k",
                    s.sigma.matrix[:, i],
                    s.sigma.matrix[:, j],
                    d.structure,
                )
                yield {"pair": [i, j]}, float(np.abs(lhs - rhs).max())

    return tally(deviations(), 0.0, samples=25)


def jacobian_bracket_deviation(x_field: VectorField, y_field: VectorField, at, richardson: bool = False):
    """Largest gap at one point between the strong-difference bracket and
    DY.X - DX.Y with finite-difference Jacobians.

    For a (B, n) block of points the gaps of all B come back as an array,
    from one column run through `run_columns`.
    """
    if np.ndim(at) == 2:
        return run_columns(
            at,
            lambda block: _jacobian_bracket_columns(x_field, y_field, block, richardson),
            lambda pt: jacobian_bracket_deviation(x_field, y_field, pt, richardson),
        )
    args = [float(v) for v in at]
    xv = np.array(evaluate(x_field.components, args))
    yv = np.array(evaluate(y_field.components, args))
    want = (
        jacobian_oracle(y_field, at, richardson=richardson) @ xv
        - jacobian_oracle(x_field, at, richardson=richardson) @ yv
    )
    got = bracket_value(x_field, y_field, at)
    return float(np.abs(want - got).max(initial=0.0))


def _jacobian_bracket_columns(x_field, y_field, block, richardson):
    count = len(block)
    args = list(block.T)
    xv = stack_columns(evaluate(x_field.components, args), count)
    yv = stack_columns(evaluate(y_field.components, args), count)
    jy = jacobian_oracle(y_field, block, richardson=richardson)
    jx = jacobian_oracle(x_field, block, richardson=richardson)
    got = bracket_value(x_field, y_field, block)
    want = np.empty_like(got)
    for p in range(count):
        # one product per point, with a single point's layout: a matrix
        # product rounds by layout
        want[p] = jy[p] @ xv[p] - jx[p] @ yv[p]
    return np.abs(want - got).max(axis=1, initial=0.0)


def check_bracket_jacobian(dims=(1, 2, 3), pairs: int = 20, points: int = 20, rng=None, tol: float = 1e-6) -> dict:
    """Strong-difference bracket against the finite-difference Jacobian bracket."""
    if rng is None:
        rng = np.random.default_rng(0)

    def deviations():
        for n in dims:
            for pair in range(pairs):
                xf = random_poly_field(rng, n, deg=3)
                yf = random_poly_field(rng, n, deg=3)
                block = rng.uniform(-1.0, 1.0, size=(points, n))
                for dev in jacobian_bracket_deviation(xf, yf, block):
                    yield {"dim": n, "pair": pair}, float(dev)

    return tally(deviations(), tol)
