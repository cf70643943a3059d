"""Second tangents, the strong difference of compatible pairs, and brackets.

Second tangents over R^n live over the four-dimensional algebra
DD = tensor(dual, dual).  We keep the left tensor factor as the outer
tangent direction throughout and store second tangents in slot order
(base, u, v, w) where u is the outer coefficient, v the inner one and w
the mixed one.  Against the DD basis [1, 1*e, e*1, e*e] that means the
slot-to-index map (0, 2, 1, 3).

Two second tangents X, Y with equal bases and crosswise equal u/v parts
form a compatible pair.  Such a pair is one point over the five-dimensional
algebra S, whose one non-unit product b1 b2 = b3 + b4 is written out in
make_S and proved by its inclusion into sum(DD, DD); a homomorphism sigma
from S onto the dual numbers sends the pair to the tangent vector
(base, w(X) - w(Y)), the strong difference.

The bracket of two fields is the strong difference of the two composite
second tangents (lift of Y applied to X, and vice versa), which works out
to DY.X - DX.Y; that orientation is fixed here once and checked against a
finite-difference Jacobian oracle in the tests.  Fields may take
parameters: the bracket of X and Y then takes its point's coordinates,
X's parameters and Y's, in that order, and so does `bracket_value`.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .algebra import (
    WeilAlgebra,
    apply_matrix,
    exchange,
    hom_tensor,
    make_basic,
    make_hom,
    rho,
    sum_algebra,
    swap_matrix,
    tensor,
)
from .errors import DomainError, IncompatiblePair, ShapeMismatch
from .exprs import Const, Expr, Var
from .functor import WeilPoint, flatten, point_from_flat, transform, unflatten
from .programs import (
    Program,
    VectorField,
    evaluate,
    evaluate_dual,
    jacobian_oracle,
    pair_blocks,
    poly_template,
    run_points,
    sampled_deviations,
    stack_columns,
)
from .reports import tally

_SLOT_TO_DD = (0, 2, 1, 3)


def dd_algebra() -> WeilAlgebra:
    """DD = tensor(dual, dual), the algebra of second tangents."""
    d = make_basic("dual")
    return tensor(d, d)


class SecondTangent:
    """A second tangent on R^dim in (base, u, v, w) slots, floats only.

    Each slot is a (dim,) array, or a (dim, B) block: B second tangents,
    column b the one of trial b.
    """

    __slots__ = ("dim", "base", "u", "v", "w")

    def __init__(self, base, u, v, w):
        arrs = [np.asarray(x, dtype=float) for x in (base, u, v, w)]
        shape = arrs[0].shape
        if len(shape) not in (1, 2) or any(a.shape != shape for a in arrs):
            raise ShapeMismatch("second tangent slots must have one shape, (dim,) or (dim, B)")
        self.dim = shape[0]
        self.base, self.u, self.v, self.w = arrs

    @classmethod
    def from_point(cls, p: WeilPoint) -> "SecondTangent":
        """Slots of a point over DD; column coefficients give a block."""
        if p.algebra != dd_algebra():
            raise ShapeMismatch("second tangents live over tensor(dual, dual)")
        arr = p.coefficient_array()
        return cls(arr[:, 0], arr[:, 2], arr[:, 1], arr[:, 3])

    def slots(self) -> tuple:
        return self.base, self.u, self.v, self.w

    def __repr__(self):
        return "SecondTangent(dim=%d)" % self.dim


def _pair_gap(x_slots, y_slots, axis=None):
    """Largest gap in the pair conditions: base to base, u to v, v to u.

    Slots come in (base, u, v, w) order; the gap is taken over `axis`, so
    axis=0 gives one gap per trial column of a block.  A non-finite slot on
    either side comes from a float overflow upstream, so it raises
    DomainError, like every other overflow, before any arithmetic on it.
    """
    if not all(np.isfinite(s).all() for s in (*x_slots, *y_slots)):
        raise DomainError("float overflow: a second tangent slot is not finite")
    (xb, xu, xv, _), (yb, yu, yv, _) = x_slots, y_slots
    return np.maximum.reduce([
        np.abs(xb - yb).max(axis=axis, initial=0.0),
        np.abs(xu - yv).max(axis=axis, initial=0.0),
        np.abs(xv - yu).max(axis=axis, initial=0.0),
    ])


def compatible(x: SecondTangent, y: SecondTangent, tol: float = 1e-9) -> bool:
    """Equal bases, and the outer part of each is the inner part of the other;
    for a block, in every trial.

    Raises DomainError when a slot of either side is not finite.
    """
    if x.base.shape != y.base.shape:
        return False
    return bool((_pair_gap(x.slots(), y.slots(), axis=0) <= tol).all())


class SPair:
    """A compatible pair of second tangents; constructor enforces membership.

    A pair of blocks is B pairs, one per trial column.
    """

    __slots__ = ("x", "y", "dim")

    def __init__(self, x: SecondTangent, y: SecondTangent, tol: float = 1e-9):
        if not compatible(x, y, tol):
            raise IncompatiblePair("pair fails the base and u/v matching conditions")
        self.x = x
        self.y = y
        self.dim = x.dim

    def coords5(self) -> np.ndarray:
        """(dim, 5) array in the basis of S, 1, e1+E2, e2+E1, e1e2, E1E2;
        (dim, B, 5) for a block."""
        return np.stack([self.x.base, self.x.u, self.x.v, self.x.w, self.y.w], axis=-1)


class SAlgebraBundle:
    """The pair algebra, its ambient presentation, inclusion and sigma."""

    __slots__ = ("algebra", "ambient", "inclusion", "sigma")

    def __init__(self, algebra, ambient, inclusion, sigma):
        self.algebra = algebra
        self.ambient = ambient
        self.inclusion = inclusion
        self.sigma = sigma


def make_S() -> SAlgebraBundle:
    """Build the compatible-pair algebra and its inclusion into sum(DD, DD).

    Basis: unit, b1 = e1+E2, b2 = e2+E1, b3 = e1e2, b4 = E1E2 (capitals
    are the second copy).  The one non-unit product is b1 b2 = b3 + b4;
    the constants are written out here, and make_hom proves them by
    checking that the span inclusion is multiplicative.  sigma maps the
    unit to 1, b3 and b4 to +e and -e, and b1, b2 to zero; on a compatible
    pair it therefore returns base and w(X) - w(Y).
    """
    c = np.zeros((5, 5, 5))
    c[0] = c[:, 0] = np.eye(5)
    c[1, 2, 3] = c[1, 2, 4] = c[2, 1, 3] = c[2, 1, 4] = 1.0
    s = WeilAlgebra("S", ("1", "e1+E2", "e2+E1", "e1e2", "E1E2"), c)
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
    inc = make_hom(s, amb, span.T)
    sigma_matrix = np.array(
        [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]
    )
    sigma = make_hom(s, make_basic("dual"), sigma_matrix)
    return SAlgebraBundle(s, amb, inc, sigma)


@lru_cache(maxsize=None)
def s_bundle() -> SAlgebraBundle:
    return make_S()


def strong_diff(pair: SPair):
    """Tangent vector (base, w(X) - w(Y)) of a compatible pair, computed
    through sigma."""
    out = pair.coords5() @ s_bundle().sigma.matrix.T
    return out[..., 0], out[..., 1]


# -- brackets ------------------------------------------------------------


def _field_args(x_field: VectorField, y_field: VectorField, args):
    """(point, X's arguments, Y's arguments) out of a bracket's arguments:
    the point's coordinates, then X's parameters, then Y's."""
    if x_field.dim != y_field.dim:
        raise ShapeMismatch("fields live on different spaces")
    n, px = x_field.dim, x_field.components.params
    point = list(args[:n])
    return point, point + list(args[n : n + px]), point + list(args[n + px :])


def _bracket_slots(x_field: VectorField, y_field: VectorField, args):
    """X's values, Y's values, Y's slope along X and X's slope along Y at
    a bracket's `args`, over any carrier.  The values come from `evaluate`,
    not off the dual runs, whose powers multiply by squaring and so round
    differently."""
    _, xa, ya = _field_args(x_field, y_field, args)
    xv = evaluate(x_field.components, xa)
    yv = evaluate(y_field.components, ya)
    dyx = evaluate_dual(y_field.components, ya, xv)[1]
    dxy = evaluate_dual(x_field.components, xa, yv)[1]
    return xv, yv, dyx, dxy


def _composite_pair(x_field: VectorField, y_field: VectorField, args, count) -> SPair:
    """The compatible pair (lift of Y along X, lift of X along Y) over
    `run_points` arguments.

    For a block the pair is a block of B pairs on R^n, point p's in
    column p.
    """
    slots = _bracket_slots(x_field, y_field, args)
    at, xv, yv, dyx, dxy = (stack_columns(v, count).T for v in (args[: x_field.dim], *slots))
    return SPair(SecondTangent(at, xv, yv, dyx), SecondTangent(at, yv, xv, dxy))


def bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """The bracket as a symbolic field, assembled through sigma; its
    parameters are X's and then Y's."""
    n = x_field.dim
    params = x_field.components.params + y_field.components.params
    xs = [Var(i) for i in range(n + params)]
    xv, yv, w_yx, w_xy = _bracket_slots(x_field, y_field, xs)
    sigma = s_bundle().sigma.matrix
    body = []
    for i in range(n):
        vec5 = [xs[i], xv[i], yv[i], w_yx[i], w_xy[i]]
        out = apply_matrix(sigma, vec5)[1]
        body.append(out if isinstance(out, Expr) else Const(out))
    return VectorField(n, Program(n, body, params=params))


def bracket_value(x_field: VectorField, y_field: VectorField, at) -> np.ndarray:
    """Pointwise bracket via float dual numbers; no expression trees built.

    `at` is one point, or a (B, n) block of points that gives a (B, n)
    array from one `run_points` call; a point's coordinates are followed
    by X's parameters and Y's.
    """

    def value(args, count):
        return strong_diff(_composite_pair(x_field, y_field, args, count))[1].T

    return run_points(at, value)


# -- second tangents with algebra coefficients ---------------------------


class ASecondPair:
    """A compatible pair of algebra-coefficient second tangents.

    Coefficients are stored as (n, 4, algebra.dim) float arrays in slot
    order (base, u, v, w), or as (n, 4, algebra.dim, B) blocks of B pairs,
    trial b in the last index; compatibility is checked coefficient-wise,
    to within 1e-9, and a non-finite coefficient raises DomainError.
    """

    __slots__ = ("algebra", "n", "x", "y")

    def __init__(self, algebra: WeilAlgebra, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim not in (3, 4) or x.shape[1] != 4 or x.shape[2] != algebra.dim:
            raise ShapeMismatch("expected (n, 4, dim) or (n, 4, dim, B) slot arrays")
        if y.shape != x.shape:
            raise ShapeMismatch("the two sides must have equal shapes")
        dev = _pair_gap(x.swapaxes(0, 1), y.swapaxes(0, 1))
        if dev > 1e-9:
            raise IncompatiblePair("pair mismatch of size %g" % dev)
        self.algebra = algebra
        self.n = x.shape[0]
        self.x = x
        self.y = y


def k_map(pair: ASecondPair) -> SPair:
    """Reinterpret an algebra-coefficient pair as a pair on the lifted space.

    Routed through the exchange homomorphism tensor(A, DD) -> tensor(DD, A);
    the result uses the coordinate-major flat layout (i, a) -> i*dim + a,
    and must be a compatible pair exactly.  A block pair lifts in one pass,
    its trial axis carried as coefficient columns, to a block of pairs.
    Membership is then each trial's own: only finite slots are enforced
    here, and check_exchange_square tests the trials one by one, so that
    one failing trial does not hide the others.
    """
    algebra, dd = pair.algebra, dd_algebra()
    exch = exchange(algebra, dd)
    trials = pair.x.shape[3:]
    sides = []
    for arr in (pair.x, pair.y):
        # slots into DD basis order: one A-point coordinate per (i, DD index)
        flat = arr[:, _SLOT_TO_DD].reshape(4 * pair.n * algebra.dim, *trials)
        p = point_from_flat(algebra, 4 * pair.n, flat)
        q = transform(exch, flatten(p, algebra, dd))
        sides.append(SecondTangent.from_point(unflatten(q, dd, algebra)))
    return SPair(sides[0], sides[1], tol=np.inf if trials else 0.0)


# -- diagram checks ------------------------------------------------------


def check_exchange_square(algebra: WeilAlgebra, n: int, *, rng, samples: int, tol: float) -> dict:
    """Strong difference commutes with the coefficient-exchange route.

    Path one reinterprets the pair on the lifted space and takes the strong
    difference there.  Path two applies sigma inside the tensor coefficients
    and then exchanges factors.  Both must agree within tol, and the
    reinterpreted pair must satisfy the membership conditions exactly.  Its
    slots must also equal the input slots exactly: the pair conditions and
    the strong difference are symmetric in u and v, so only this comparison
    sees the two exchanged.

    All trials run as one block: drawn at once (the numbers a draw per
    trial gives, in the same order), carried as coefficient columns through
    k_map and both paths, and judged trial by trial.  Every step is
    elementwise, so each trial rounds as it does on its own.
    """
    bundle = s_bundle()
    da = algebra.dim
    sig_a = hom_tensor(bundle.sigma, algebra)
    exch = exchange(algebra, bundle.sigma.target)

    arr = np.moveaxis(rng.uniform(-1.0, 1.0, size=(samples, n, 5, da)), 0, -1)
    x, y = arr[:, [0, 1, 2, 3]], arr[:, [0, 2, 1, 4]]
    lifted = k_map(ASecondPair(algebra, x, y))
    member = _pair_gap(lifted.x.slots(), lifted.y.slots(), axis=0) <= 0.0
    # lifted slot s holds coefficient a of coordinate i at i*da + a
    slots_kept = np.logical_and.reduce([
        (np.stack(t.slots()) == side.swapaxes(0, 1).reshape(4, n * da, samples)).all(axis=(0, 1))
        for t, side in ((lifted.x, x), (lifted.y, y))
    ])
    base1, vec1 = strong_diff(lifted)

    p = point_from_flat(algebra, 5 * n, arr.reshape(5 * n * da, samples))
    q = transform(exch, transform(sig_a, flatten(p, algebra, bundle.algebra)))
    qa = q.coefficient_array()
    base2 = qa[:, 0:da].reshape(n * da, samples)
    vec2 = qa[:, da : 2 * da].reshape(n * da, samples)
    dev = np.maximum(
        np.abs(base1 - base2).max(axis=0, initial=0.0),
        np.abs(vec1 - vec2).max(axis=0, initial=0.0),
    )

    def deviations():
        for trial in range(samples):
            if not member[trial]:
                yield {"trial": trial, "reason": "membership"}, None
            elif not slots_kept[trial]:
                yield {"trial": trial, "reason": "slots"}, None
            else:
                yield {"trial": trial}, dev[trial]

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
    r = rho(make_basic("dual")).matrix
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
    d = make_basic("dual")

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
    from one `run_points` call.  A point's coordinates are followed by X's
    parameters and Y's, as for `bracket_value`.
    """

    def gap(args, count):
        _, xa, ya = _field_args(x_field, y_field, args)
        pair = _composite_pair(x_field, y_field, args, count)
        jy = jacobian_oracle(y_field.components, stack_columns(ya, count), richardson=richardson)
        jx = jacobian_oracle(x_field.components, stack_columns(xa, count), richardson=richardson)
        want = jacobian_bracket(jx, pair.x.u.T, jy, pair.x.v.T)
        return np.abs(want - strong_diff(pair)[1].T).max(axis=-1, initial=0.0)

    return run_points(at, gap)


def jacobian_bracket(jx, x_values, jy, y_values) -> np.ndarray:
    """DY.X - DX.Y from the Jacobians and values of X and Y at one point,
    or at each point of a block: (B, n, n) Jacobians and (B, n) values
    give (B, n).  One product per point, with a single point's layout: a
    matrix product rounds by layout."""
    n = x_values.shape[-1]
    pairs = zip(jy.reshape(-1, n, n), x_values.reshape(-1, n), jx.reshape(-1, n, n), y_values.reshape(-1, n))
    return np.array([a @ u - b @ v for a, u, b, v in pairs]).reshape(x_values.shape)


def bracket_jacobian_deviations(x_field: VectorField, y_field: VectorField, pairs: int, *, rng, samples: int,
                                richardson: bool):
    """`sampled_deviations` of `jacobian_bracket_deviation` at `samples`
    points of [-1, 1]^n for each of `pairs` draws of the fields'
    parameters, drawn as the column blocks of `pair_blocks`."""
    blocks = pair_blocks(rng, x_field, y_field, x_field.dim, pairs, samples)
    return sampled_deviations(blocks, partial(jacobian_bracket_deviation, x_field, y_field, richardson=richardson),
                              samples)


def check_bracket_jacobian(dims, pairs: int, *, rng, samples: int, tol: float) -> dict:
    """Strong-difference bracket against the finite-difference Jacobian
    bracket, on `pairs` random cubic field pairs per dimension: each pair is
    a row of coefficients of the one cubic template of its dimension."""

    def deviations():
        for n in dims:
            cubic = VectorField(n, poly_template(n, n, 3))
            devs = bracket_jacobian_deviations(cubic, cubic, pairs, rng=rng, samples=samples, richardson=False)
            yield from (({"dim": n, **tag}, dev) for tag, dev in devs)

    return tally(deviations(), tol)
