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
from .exprs import Const, Expr, Var
from .programs import Program, evaluate
from .reports import tally


class WeilPoint:
    """A point of the lift of R^dim over an algebra: dim algebra elements."""

    __slots__ = ("algebra", "dim", "coords")

    def __init__(self, algebra: WeilAlgebra, coords):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, AlgebraElement):
                raise ShapeMismatch("coordinates must be algebra elements")
            if not (c.algebra is algebra or c.algebra.same_structure(algebra)):
                raise AlgebraMismatch("coordinate algebra differs from the point's")
        self.algebra = algebra
        self.dim = len(coords)
        self.coords = coords

    def coefficient_array(self) -> np.ndarray:
        """(dim, algebra.dim) float array; fails on symbolic coefficients."""
        return np.array([[float(c) for c in el.coeffs] for el in self.coords])

    def flat(self) -> np.ndarray:
        return self.coefficient_array().reshape(-1)

    def real_parts(self) -> np.ndarray:
        u = self.algebra.unit_index
        return np.array([float(el.coeffs[u]) for el in self.coords])

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


def point_from_reals(algebra: WeilAlgebra, values) -> WeilPoint:
    return WeilPoint(algebra, [algebra.unit(float(v)) for v in values])


def _coerce_element(algebra: WeilAlgebra, v) -> AlgebraElement:
    if isinstance(v, AlgebraElement):
        return v
    coeffs = [0.0] * algebra.dim
    coeffs[algebra.unit_index] = v
    return AlgebraElement(algebra, coeffs)


def lift(algebra: WeilAlgebra, f: Program):
    """The lifted map as a callable on points."""

    def lifted(p: WeilPoint) -> WeilPoint:
        if not (p.algebra is algebra or p.algebra.same_structure(algebra)):
            raise AlgebraMismatch("point algebra differs from the lift's")
        if p.dim != f.arity_in:
            raise ShapeMismatch(
                "program expects %d coordinates, point has %d" % (f.arity_in, p.dim)
            )
        outs = evaluate(f, list(p.coords))
        return WeilPoint(algebra, [_coerce_element(algebra, v) for v in outs])

    return lifted


def lift_elements(algebra: WeilAlgebra, f: Program, elements) -> list:
    """Lift evaluated on raw coordinate elements (no WeilPoint wrapper)."""
    outs = evaluate(f, list(elements))
    return [_coerce_element(algebra, v) for v in outs]


def lift_program(algebra: WeilAlgebra, f: Program) -> Program:
    """Symbolic rendering of the lifted map on coefficient coordinates.

    Input layout is coordinate-major: coefficient a of coordinate i sits at
    flat index i*dim + a, and likewise for the output.
    """
    d = algebra.dim
    env = [
        AlgebraElement(algebra, [Var(i * d + a) for a in range(d)])
        for i in range(f.arity_in)
    ]
    outs = evaluate(f, env)
    body = []
    for v in outs:
        el = _coerce_element(algebra, v)
        for c in el.coeffs:
            body.append(c if isinstance(c, Expr) else Const(c))
    return Program(f.arity_in * d, body)


def transform(mu: AlgebraHom, p: WeilPoint) -> WeilPoint:
    """Apply a reparametrization homomorphism coefficient-wise."""
    if not (p.algebra is mu.source or p.algebra.same_structure(mu.source)):
        raise AlgebraMismatch("point is not over the hom's source algebra")
    return WeilPoint(
        mu.target,
        [AlgebraElement(mu.target, apply_matrix(mu.matrix, c.coeffs)) for c in p.coords],
    )


def flatten(p: WeilPoint, outer: WeilAlgebra, inner: WeilAlgebra, target: WeilAlgebra | None = None) -> WeilPoint:
    """Identify an iterated point (over `outer`, on the coefficient space of
    an `inner` lift) with a point over tensor(outer, inner)."""
    if not (p.algebra is outer or p.algebra.same_structure(outer)):
        raise AlgebraMismatch("point is not over the declared outer algebra")
    din = inner.dim
    if p.dim % din != 0:
        raise ShapeMismatch(
            "iterated point dim %d is not a multiple of inner dim %d" % (p.dim, din)
        )
    n = p.dim // din
    ba = target if target is not None else tensor(outer, inner)
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


def point_to_json(p: WeilPoint) -> dict:
    return {
        "algebra": p.algebra.name,
        "coords": [[float(c) for c in el.coeffs] for el in p.coords],
    }


def point_from_json(data, algebra: WeilAlgebra) -> WeilPoint:
    if not isinstance(data, dict) or set(data) - {"algebra", "coords"}:
        raise ShapeMismatch("point document needs exactly 'algebra' and 'coords'")
    if data.get("algebra") != algebra.name:
        raise AlgebraMismatch(
            "point was saved over %r, not %r" % (data.get("algebra"), algebra.name)
        )
    coords = data.get("coords")
    if not isinstance(coords, list):
        raise ShapeMismatch("'coords' must be a list of coefficient lists")
    return WeilPoint(algebra, [AlgebraElement(algebra, row) for row in coords])


def check_iterated_lift(outer: WeilAlgebra, inner: WeilAlgebra, programs: int = 20, n: int = 2, rng=None, tol: float = 1e-10) -> dict:
    """Lifting twice equals lifting once over the tensor algebra.

    A random program is lifted over `inner`, the rendering is lifted over
    `outer`, and the flattened result is compared with the direct lift
    over tensor(outer, inner) at random points.  Programs mix polynomial
    layers with sin/cos/exp so the truncated Taylor paths are exercised.
    """
    from .programs import random_poly_program
    from . import exprs as _exprs

    if rng is None:
        rng = np.random.default_rng(0)
    t = tensor(outer, inner)
    prims = ("sin", "cos", "exp")

    def deviations():
        for trial in range(programs):
            f = random_poly_program(rng, n, n, deg=2, scale=0.5)
            body = []
            for i, e in enumerate(f.exprs):
                if trial % 2 == 0:
                    e = e + Const(0.3) * _exprs.prim(prims[(trial + i) % 3], e)
                body.append(e)
            f = Program(n, body)

            flat = rng.uniform(-0.7, 0.7, size=n * t.dim)
            p_t = point_from_flat(t, n, flat)
            direct = lift(t, f)(p_t)

            p_it = unflatten(p_t, outer, inner)
            inner_rendering = lift_program(inner, f)
            q_it = lift(outer, inner_rendering)(p_it)
            twice = flatten(q_it, outer, inner, target=t)

            yield {"trial": trial}, float(np.abs(direct.flat() - twice.flat()).max(initial=0.0))

    return tally(deviations(), tol)
