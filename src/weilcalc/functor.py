"""Lifting smooth programs over a Weil algebra carrier.

A point of the lifted space over R^n is n algebra elements.  Lifting a
program is evaluating it with those elements as the variables; lifting it
symbolically (coefficient coordinates as variables) renders the lifted map
as an ordinary Program on R^{n*dim}.  Natural reparametrizations are
algebra homomorphisms applied coefficient-wise.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, AlgebraHom, WeilAlgebra, apply_matrix, tensor
from .errors import AlgebraMismatch, ShapeMismatch
from .exprs import Const, Expr, Var, prim
from .programs import Program, evaluate, poly_template, run_points, sampled_deviations, trial_rows
from .reports import tally


class WeilPoint:
    """A point of the lift of R^dim over an algebra: dim algebra elements."""

    __slots__ = ("algebra", "dim", "coords")

    def __init__(self, algebra: WeilAlgebra, coords):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, AlgebraElement):
                raise ShapeMismatch("coordinates must be algebra elements")
            if c.algebra != algebra:
                raise AlgebraMismatch("coordinate algebra differs from the point's")
        self.algebra = algebra
        self.dim = len(coords)
        self.coords = coords

    def coefficient_array(self) -> np.ndarray:
        """(dim, algebra.dim) float array; raises ShapeMismatch on symbolic
        coefficients.

        With column coefficients (float64 arrays of one length B, entry b
        for point b) it is (dim, algebra.dim, B), and a plain-number
        coefficient fills its column.
        """
        coeffs = [c for el in self.coords for c in el.coeffs]
        if any(isinstance(c, Expr) for c in coeffs):
            raise ShapeMismatch("a point with symbolic coefficients has no float array")
        out = np.empty((len(coeffs), *np.broadcast_shapes(*map(np.shape, coeffs))))
        for k, c in enumerate(coeffs):
            out[k] = c
        return out.reshape(self.dim, self.algebra.dim, *out.shape[1:])

    def flat(self) -> np.ndarray:
        """The coefficients in point_from_flat's layout: (dim*algebra.dim,),
        or (dim*algebra.dim, B) for column coefficients, point b in column b."""
        array = self.coefficient_array()
        return array.reshape(-1, *array.shape[2:])

    def __repr__(self):
        return "WeilPoint(%s, dim=%d)" % (self.algebra.name, self.dim)


def point_from_flat(algebra: WeilAlgebra, dim: int, flat) -> WeilPoint:
    flat = list(flat)
    if len(flat) != dim * algebra.dim:
        raise ShapeMismatch(
            "expected %d coefficients, got %d" % (dim * algebra.dim, len(flat))
        )
    d = algebra.dim
    return WeilPoint(
        algebra,
        [AlgebraElement(algebra, flat[i * d : (i + 1) * d]) for i in range(dim)],
    )


def _coerce_element(algebra: WeilAlgebra, v) -> AlgebraElement:
    return v if isinstance(v, AlgebraElement) else algebra.unit(v)


def lift(algebra: WeilAlgebra, f: Program):
    """The lifted map as a callable on points, followed by the program's
    parameters as scalars or columns."""

    def lifted(p: WeilPoint, *params) -> WeilPoint:
        if p.algebra != algebra:
            raise AlgebraMismatch("point algebra differs from the lift's")
        if p.dim != f.arity_in:
            raise ShapeMismatch(
                "program expects %d coordinates, point has %d" % (f.arity_in, p.dim)
            )
        outs = evaluate(f, [*p.coords, *params])
        return WeilPoint(algebra, [_coerce_element(algebra, v) for v in outs])

    return lifted


def lift_elements(algebra: WeilAlgebra, f: Program, elements) -> list:
    """Lift evaluated on raw coordinate elements (no WeilPoint wrapper),
    followed by the program's parameters as scalars."""
    outs = evaluate(f, list(elements))
    return [_coerce_element(algebra, v) for v in outs]


def lift_program(algebra: WeilAlgebra, f: Program) -> Program:
    """Symbolic rendering of the lifted map on coefficient coordinates.

    Input layout is point_from_flat's coordinate-major one: coefficient a
    of coordinate i sits at flat index i*dim + a, and likewise for the output.
    The program's parameters follow the coefficients, not lifted: they enter
    the lift as scalars, as constants do.
    """
    n = f.arity_in * algebra.dim
    env = point_from_flat(algebra, f.arity_in, [Var(k) for k in range(n)]).coords
    params = [Var(k) for k in range(n, n + f.params)]
    outs = lift_elements(algebra, f, [*env, *params])
    return Program(n, [c if isinstance(c, Expr) else Const(c) for el in outs for c in el.coeffs], params=f.params)


def transform(mu: AlgebraHom, p: WeilPoint) -> WeilPoint:
    """Apply a reparametrization homomorphism coefficient-wise."""
    if p.algebra != mu.source:
        raise AlgebraMismatch("point is not over the hom's source algebra")
    return WeilPoint(
        mu.target,
        [AlgebraElement(mu.target, apply_matrix(mu.matrix, c.coeffs)) for c in p.coords],
    )


def flatten(p: WeilPoint, outer: WeilAlgebra, inner: WeilAlgebra) -> WeilPoint:
    """Identify an iterated point (over `outer`, on the coefficient space of
    an `inner` lift) with a point over tensor(outer, inner)."""
    if p.algebra != outer:
        raise AlgebraMismatch("point is not over the declared outer algebra")
    din = inner.dim
    if p.dim % din != 0:
        raise ShapeMismatch(
            "iterated point dim %d is not a multiple of inner dim %d" % (p.dim, din)
        )
    n = p.dim // din
    ba = tensor(outer, inner)
    dout = outer.dim
    coords = []
    for i in range(n):
        coeffs = [0.0] * (dout * din)
        for a in range(din):
            inner_el = p.coords[i * din + a]
            for b in range(dout):
                coeffs[b * din + a] = inner_el.coeffs[b]
        coords.append(AlgebraElement(ba, coeffs))
    return WeilPoint(ba, coords)


def unflatten(q: WeilPoint, outer: WeilAlgebra, inner: WeilAlgebra) -> WeilPoint:
    """Inverse of flatten."""
    dout, din = outer.dim, inner.dim
    if q.algebra.dim != dout * din:
        raise ShapeMismatch("point algebra dim is not outer.dim * inner.dim")
    coords = []
    for el in q.coords:
        for a in range(din):
            coeffs = [el.coeffs[b * din + a] for b in range(dout)]
            coords.append(AlgebraElement(outer, coeffs))
    return WeilPoint(outer, coords)


def check_iterated_lift(outer: WeilAlgebra, inner: WeilAlgebra, n: int, *, rng, samples: int, tol: float) -> dict:
    """Lifting twice equals lifting once over the tensor algebra.

    A random program is lifted over `inner`, the rendering is lifted over
    `outer`, and the flattened result is compared with the direct lift
    over tensor(outer, inner) at random points.  The program is one
    template, rendered once: a quadratic plus the sin, cos and exp of each
    component, weighted by parameters, so the truncated Taylor paths are
    exercised.  Component i of an even trial weighs primitive
    (trial + i) % 3 by 0.3, and every other weight is 0.
    """
    t = tensor(outer, inner)
    quadratic = poly_template(n, n, 2)
    k = n + quadratic.params  # component i weighs its sin, cos and exp by parameters k + 3i, k + 3i + 1, k + 3i + 2
    body = [e + Var(k + 3 * i) * prim("sin", e) + Var(k + 3 * i + 1) * prim("cos", e)
            + Var(k + 3 * i + 2) * prim("exp", e) for i, e in enumerate(quadratic.exprs)]
    f = Program(n, body, params=quadratic.params + 3 * n)
    rendering = lift_program(inner, f)
    width = n * t.dim
    # a trial draws the coefficients, then the point; its row is (point, coefficients, weights)
    trial = np.arange(samples)[:, None]
    weights = np.eye(3)[(trial + np.arange(n)) % 3] * np.where(trial % 2 == 0, 0.3, 0.0)[..., None]
    draws = trial_rows(rng, samples, (-0.5, 0.5, quadratic.params), (-0.7, 0.7, width))
    rows = np.hstack([np.roll(draws, -quadratic.params, axis=1), weights.reshape(samples, -1)])

    def gap(args, count):
        p_t = point_from_flat(t, n, args[:width])
        direct = lift(t, f)(p_t, *args[width:])
        twice = flatten(lift(outer, rendering)(unflatten(p_t, outer, inner), *args[width:]), outer, inner)
        return np.abs(direct.flat() - twice.flat()).max(axis=0, initial=0.0)

    return tally(sampled_deviations([(0, rows)], lambda pts: run_points(pts, gap), samples), tol)
