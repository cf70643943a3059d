"""Functional bundles over R^m in product form.

A functional point is a base point x together with a smooth fiber map
h: Q1 -> Q2 carried as a Program.  Every finite-order construction below
speaks one jet-coordinate language: an order-r associated map is a
program over the variable layout

    x_0 .. x_{m-1},  y_0 .. y_{q1-1},  one q2-wide block z_alpha per
    multi-index alpha with |alpha| <= r, blocks in graded order,

where z_alpha holds the plain partial derivative D^alpha h(y).  Jet
coordinates are produced by lifting h over truncated(q1, r), so they are
exact for polynomial fiber maps.

Lifted points over an algebra A keep the base over A and turn the fiber
map into a program Q1 -> A^{q2}; its output layout is target-major, the
dim-A coefficients of target coordinate s occupying slots s*dimA..
(s+1)*dimA-1, matching the flat layout of lifted points elsewhere.
"""

from __future__ import annotations

import numpy as np

from ._monomials import add_indices, factorial_multi, monomial_index, monomials
from .algebra import (
    AlgebraElement,
    AlgebraHom,
    WeilAlgebra,
    apply_matrix,
)
from .errors import ArityMismatch, ShapeMismatch
from .exprs import Const, Expr, Var
from .functor import WeilPoint, lift_elements, transform
from .jets import FunctorTriple, _combine, base_block, canonical_H, moving_frame_dual
from .programs import (
    Program,
    VectorField,
    eval_exprs,
    evaluate,
    identity_program,
    program_from_json,
    program_to_json,
    random_poly_program,
)
from .prolong import field_prolong
from .reports import tally
from .strongdiff import bracket, dual_algebra

FAMILY_FD_STEP = 1e-5


def fiber_arity(m: int, q1: int, q2: int, r: int) -> int:
    """Input arity of an order-r associated-map program."""
    return m + q1 + q2 * len(monomials(q1, r))


class _Layout:
    """Variable offsets of the (x, y, z_alpha) convention."""

    __slots__ = ("m", "q1", "q2", "r", "monos", "index", "arity")

    def __init__(self, m: int, q1: int, q2: int, r: int):
        self.m, self.q1, self.q2, self.r = m, q1, q2, r
        self.monos = monomials(q1, r)
        self.index = monomial_index(q1, r)
        self.arity = m + q1 + q2 * len(self.monos)

    def z(self, alpha, s: int) -> int:
        return self.m + self.q1 + self.index[alpha] * self.q2 + s


def _as_expr(v) -> Expr:
    return v if isinstance(v, Expr) else Const(float(v))


def _fiber_env(algebra: WeilAlgebra, lay: _Layout) -> list:
    """The y and z_alpha arguments of D lifted over A, in lay's variables.

    y stays real (its variable in the unit slot); each z_alpha coordinate
    is a full element over A, read from lay's dim-A coefficient slots.
    """
    da = algebra.dim
    env = []
    for j in range(lay.q1):
        coeffs = [0.0] * da
        coeffs[algebra.unit_index] = Var(lay.m + j)
        env.append(AlgebraElement(algebra, coeffs))
    for alpha in lay.monos:
        for s in range(lay.q2 // da):
            env.append(AlgebraElement(algebra, [Var(lay.z(alpha, s * da + c)) for c in range(da)]))
    return env


# -- points ----------------------------------------------------------------


class FunctionalPoint:
    """Base point plus fiber map of the bundle with fibers C^inf(Q1, Q2)."""

    __slots__ = ("m", "q1", "q2", "x", "h")

    def __init__(self, x, h: Program):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.m = self.x.shape[0]
        self.q1 = h.arity_in
        self.q2 = h.arity_out
        self.h = h

    def __repr__(self):
        return "FunctionalPoint(m=%d, h: R^%d -> R^%d)" % (self.m, self.q1, self.q2)


class FunctionalWeilPoint:
    """Lifted functional point: base over A, fiber map into A^{q2}."""

    __slots__ = ("algebra", "m", "q1", "q2", "a", "hhat")

    def __init__(self, algebra: WeilAlgebra, a: WeilPoint, hhat: Program):
        if not a.algebra.same_structure(algebra):
            raise ShapeMismatch("base point is not over the stated algebra")
        if hhat.arity_out % algebra.dim != 0:
            raise ShapeMismatch(
                "fiber map must produce dim-A coefficient blocks, got %d outputs"
                % hhat.arity_out
            )
        self.algebra = algebra
        self.a = a
        self.hhat = hhat
        self.m = a.dim
        self.q1 = hhat.arity_in
        self.q2 = hhat.arity_out // algebra.dim

    def value(self, y) -> list:
        """The fiber value at y as a list of q2 algebra elements."""
        flat = evaluate(self.hhat, [float(v) for v in y])
        d = self.algebra.dim
        return [
            AlgebraElement(self.algebra, flat[s * d : (s + 1) * d])
            for s in range(self.q2)
        ]

    def real_point(self) -> FunctionalPoint:
        """Drop nilpotent parts: the underlying functional point."""
        d, u = self.algebra.dim, self.algebra.unit_index
        body = [self.hhat.exprs[s * d + u] for s in range(self.q2)]
        return FunctionalPoint(self.a.real_parts(), Program(self.q1, body))

    def __repr__(self):
        return "FunctionalWeilPoint(m=%d, q1=%d, q2=%d over %s)" % (
            self.m,
            self.q1,
            self.q2,
            self.algebra.name,
        )


def functional_lift(algebra: WeilAlgebra, base_family: Program, fiber_family: Program) -> FunctionalWeilPoint:
    """A-velocity of a family of functional points.

    The family is a program pair in k = width(A) auxiliary parameters:
    base_family maps the parameters to the base point, fiber_family maps
    (parameters, y) to the fiber value.  Evaluating both at the designated
    generator elements of A yields the lifted point.
    """
    gens = algebra.generator_elements()
    k = len(gens)
    if base_family.arity_in != k:
        raise ArityMismatch(
            "base family expects %d parameters for %s"
            % (base_family.arity_in, algebra.name)
        )
    if fiber_family.arity_in < k:
        raise ArityMismatch("fiber family is missing the parameter slots")
    q1 = fiber_family.arity_in - k
    a_pt = WeilPoint(algebra, lift_elements(algebra, base_family, gens))
    env = list(gens) + [Var(j) for j in range(q1)]
    outs = lift_elements(algebra, fiber_family, env)
    body = [_as_expr(c) for el in outs for c in el.coeffs]
    return FunctionalWeilPoint(algebra, a_pt, Program(q1, body))


def reparametrize(mu: AlgebraHom, p: FunctionalWeilPoint) -> FunctionalWeilPoint:
    """Push a lifted point through an algebra homomorphism, coordinatewise."""
    if not mu.source.same_structure(p.algebra):
        raise ShapeMismatch("hom source does not match the point's algebra")
    a2 = transform(mu, p.a)
    da, db = p.algebra.dim, mu.target.dim
    body = []
    for s in range(p.q2):
        block = apply_matrix(mu.matrix, p.hhat.exprs[s * da : (s + 1) * da])
        body.extend(_as_expr(c) for c in block)
    return FunctionalWeilPoint(mu.target, a2, Program(p.q1, body))


# -- jets of fiber maps -----------------------------------------------------


def jet_values(h: Program, y, r: int) -> np.ndarray:
    """Plain derivatives D^alpha h(y), |alpha| <= r, alpha-major flat.

    Computed by lifting h over truncated(q1, r) at y, then scaling the
    Taylor coefficients back by alpha factorial.
    """
    q1 = h.arity_in
    y = [float(v) for v in y]
    if r == 0:
        return np.asarray(evaluate(h, y), dtype=float)
    t = canonical_H(q1, r).algebra
    tidx = monomial_index(q1, r)
    gens = t.generator_elements()
    outs = lift_elements(t, h, [gens[j] + y[j] for j in range(q1)])
    flat = np.empty(len(tidx) * h.arity_out)
    for alpha, i in tidx.items():
        fac = float(factorial_multi(alpha))
        for s in range(h.arity_out):
            flat[i * h.arity_out + s] = fac * float(outs[s].coeffs[i])
    return flat


# -- finite-order morphisms -------------------------------------------------


class OrderRMorphism:
    """Fibered morphism of finite order in associated-map form.

    The fiber program consumes (x, y, z_alpha blocks, v) where v is an
    extra fiber argument of width q3 and y = anchor(v) is the point where
    the jet of h is taken; anchor defaults to the identity on Q1.
    """

    __slots__ = ("m", "q1", "q2", "r", "q3", "q4", "base", "fiber", "anchor")

    def __init__(self, m, q1, q2, r, fiber: Program, base: Program | None = None, anchor: Program | None = None, q3: int | None = None):
        if base is None:
            base = identity_program(m)
        if q3 is None:
            q3 = q1
        if anchor is None:
            if q3 != q1:
                raise ArityMismatch("an explicit anchor is required when q3 != q1")
            anchor = identity_program(q1)
        if base.arity_in != m or base.arity_out != m:
            raise ArityMismatch("base program must map R^m to R^m")
        if anchor.arity_in != q3 or anchor.arity_out != q1:
            raise ArityMismatch("anchor must map the extra fiber into Q1")
        want = fiber_arity(m, q1, q2, r) + q3
        if fiber.arity_in != want:
            raise ArityMismatch(
                "fiber program expects %d inputs for this signature, has %d"
                % (want, fiber.arity_in)
            )
        self.m, self.q1, self.q2, self.r, self.q3 = m, q1, q2, r, q3
        self.q4 = fiber.arity_out
        self.base = base
        self.fiber = fiber
        self.anchor = anchor


def morphism_apply(morph: OrderRMorphism, p: FunctionalPoint, v) -> np.ndarray:
    """Evaluate the associated map on (point, extra fiber argument)."""
    if (p.m, p.q1, p.q2) != (morph.m, morph.q1, morph.q2):
        raise ArityMismatch("point signature does not match the morphism")
    v = [float(c) for c in v]
    if len(v) != morph.q3:
        raise ArityMismatch("extra fiber argument has width %d, want %d" % (len(v), morph.q3))
    y = evaluate(morph.anchor, v)
    z = jet_values(p.h, y, morph.r)
    args = [float(c) for c in p.x] + [float(c) for c in y] + list(z) + v
    return np.asarray(evaluate(morph.fiber, args), dtype=float)


def fmorphism_apply(base: Program, f1: Program, f1_inv: Program, f2: Program, p: FunctionalPoint) -> FunctionalPoint:
    """Functor action on points: conjugate the fiber map, move the base.

    f1 and f2 are fiberwise maps (x, y) -> y' on the source and target
    fibers; both are read at the source base point x.  f1_inv must be the
    fiberwise inverse of f1 (supplied, trusted; local inverses are fine).
    The new fiber map is f2(x) . h . f1(x)^{-1}, sitting over base(x).
    """
    m, q1, q2 = p.m, p.q1, p.q2
    if base.arity_in != m or base.arity_out != m:
        raise ArityMismatch("base map must be R^m -> R^m")
    if f1.arity_in != m + q1 or f1.arity_out != q1:
        raise ArityMismatch("f1 must map (x, Q1) to Q1")
    if f1_inv.arity_in != m + q1 or f1_inv.arity_out != q1:
        raise ArityMismatch("f1_inv must map (x, Q1) to Q1")
    if f2.arity_in != m + q2 or f2.arity_out != q2:
        raise ArityMismatch("f2 must map (x, Q2) to Q2")
    x = [float(c) for c in p.x]
    x2 = evaluate(base, x)
    u = eval_exprs(f1_inv.exprs, x + [Var(j) for j in range(q1)])
    hv = eval_exprs(p.h.exprs, u)
    out = eval_exprs(f2.exprs, x + hv)
    return FunctionalPoint(x2, Program(q1, [_as_expr(e) for e in out]))


# -- functional vector fields ------------------------------------------------


class FunctionalVectorField:
    """Finite-order vector field on the functional bundle.

    xi is the base field; D is the order-r associated map giving the
    fiber velocity hdot(y) = D(x, y, jets of h at y).
    """

    __slots__ = ("m", "q1", "q2", "r", "xi", "D")

    def __init__(self, m: int, q1: int, q2: int, r: int, xi: Program, D: Program):
        if xi.arity_in != m or xi.arity_out != m:
            raise ArityMismatch("base field must map R^m to R^m")
        want = fiber_arity(m, q1, q2, r)
        if D.arity_in != want or D.arity_out != q2:
            raise ArityMismatch(
                "vertical map must be R^%d -> R^%d, has R^%d -> R^%d"
                % (want, q2, D.arity_in, D.arity_out)
            )
        self.m, self.q1, self.q2, self.r = m, q1, q2, r
        self.xi = xi
        self.D = D

    def __repr__(self):
        return "FunctionalVectorField(m=%d, q1=%d, q2=%d, order=%d)" % (
            self.m,
            self.q1,
            self.q2,
            self.r,
        )


def fvf_value(field: FunctionalVectorField, x, h: Program, y):
    """(base velocity, fiber velocity at y) for a sampled (x, h, y)."""
    if h.arity_in != field.q1 or h.arity_out != field.q2:
        raise ArityMismatch("fiber map signature does not match the field")
    x = [float(v) for v in x]
    if len(x) != field.m:
        raise ArityMismatch("base point has wrong dimension")
    y = [float(v) for v in y]
    z = jet_values(h, y, field.r)
    xdot = np.asarray(evaluate(field.xi, x), dtype=float)
    hdot = np.asarray(evaluate(field.D, x + y + list(z)), dtype=float)
    return xdot, hdot


_FIELD_KEYS = {"m", "q1", "q2", "r", "xi", "D"}


def functional_field_to_json(field: FunctionalVectorField) -> dict:
    return {
        "m": field.m,
        "q1": field.q1,
        "q2": field.q2,
        "r": field.r,
        "xi": program_to_json(field.xi),
        "D": program_to_json(field.D),
    }


def functional_field_from_json(data) -> FunctionalVectorField:
    if not isinstance(data, dict) or set(data) != _FIELD_KEYS:
        raise ShapeMismatch(
            "functional field document needs exactly the keys m, q1, q2, r, xi, D"
        )
    for key in ("m", "q1", "q2", "r"):
        if not isinstance(data[key], int):
            raise ShapeMismatch("functional field %r must be an integer" % key)
    return FunctionalVectorField(
        data["m"],
        data["q1"],
        data["q2"],
        data["r"],
        program_from_json(data["xi"]),
        program_from_json(data["D"]),
    )


def random_functional_field(rng, m: int, q1: int, q2: int, r: int, deg: int = 2, scale: float = 0.4) -> FunctionalVectorField:
    """Random polynomial field of the given signature, for sampling checks."""
    xi = random_poly_program(rng, m, m, deg=deg, scale=scale)
    d = random_poly_program(rng, fiber_arity(m, q1, q2, r), q2, deg=deg, scale=scale)
    return FunctionalVectorField(m, q1, q2, r, xi, d)


# -- bracket -----------------------------------------------------------------


def _generator_jets(src: FunctionalVectorField, r_to: int, lay: _Layout) -> dict:
    """y-jets, to order r_to, of the generator y -> D(x, y, jets of h).

    Returned as {alpha: [q2 expressions]} over the layout lay, whose jet
    coordinates must reach order src.r + r_to.  The chain rule through the
    z slots uses D^gamma z_beta = z_{beta+gamma}.
    """
    m, q1, q2 = src.m, src.q1, src.q2
    if r_to == 0:
        env = [Var(i) for i in range(m)]
        env += [Var(m + j) for j in range(q1)]
        for beta in monomials(q1, src.r):
            env += [Var(lay.z(beta, s)) for s in range(q2)]
        outs = eval_exprs(src.D.exprs, env)
        return {(0,) * q1: [_as_expr(e) for e in outs]}
    t = canonical_H(q1, r_to).algebra
    tmon = monomials(q1, r_to)
    tidx = monomial_index(q1, r_to)
    gens = t.generator_elements()
    env = []
    for i in range(m):
        coeffs = [0.0] * t.dim
        coeffs[0] = Var(i)
        env.append(AlgebraElement(t, coeffs))
    for j in range(q1):
        env.append(gens[j] + Var(m + j))
    for beta in monomials(q1, src.r):
        for s in range(q2):
            coeffs = [0.0] * t.dim
            for gamma in tmon:
                ze = Var(lay.z(add_indices(beta, gamma), s))
                fac = factorial_multi(gamma)
                coeffs[tidx[gamma]] = ze if fac == 1 else ze * (1.0 / fac)
            env.append(AlgebraElement(t, coeffs))
    outs = lift_elements(t, src.D, env)
    jets = {}
    for alpha in tmon:
        fac = float(factorial_multi(alpha))
        row = []
        for s in range(q2):
            c = outs[s].coeffs[tidx[alpha]]
            row.append(_as_expr(c if fac == 1.0 else c * fac))
        jets[alpha] = row
    return jets


def functional_bracket(x1: FunctionalVectorField, x2: FunctionalVectorField) -> FunctionalVectorField:
    """Bracket of functional fields, emitted at order r1 + r2.

    The base part is the classical bracket of the base fields.  The
    vertical part is the strong difference of the two mixed motions: each
    w term is the epsilon part of one generator evaluated on dual numbers
    that move x along the other base field and move the jet coordinates
    along the y-jets of the other generator.
    """
    if (x1.m, x1.q1, x1.q2) != (x2.m, x2.q1, x2.q2):
        raise ArityMismatch("fields live on different functional bundles")
    m, q1, q2 = x1.m, x1.q1, x1.q2
    lay = _Layout(m, q1, q2, x1.r + x2.r)
    d = dual_algebra()

    def mixed(along: FunctionalVectorField, of: FunctionalVectorField) -> list:
        jets = _generator_jets(along, of.r, lay)
        env = [
            AlgebraElement(d, [Var(i), along.xi.exprs[i]]) for i in range(m)
        ]
        env += [AlgebraElement(d, [Var(m + j), 0.0]) for j in range(q1)]
        for beta in monomials(q1, of.r):
            row = jets[beta]
            env += [
                AlgebraElement(d, [Var(lay.z(beta, s)), row[s]]) for s in range(q2)
            ]
        outs = lift_elements(d, of.D, env)
        return [el.coeffs[1] for el in outs]

    w21 = mixed(x1, x2)
    w12 = mixed(x2, x1)
    body = [_as_expr(a) - _as_expr(b) for a, b in zip(w21, w12)]
    base = bracket(VectorField(m, x1.xi), VectorField(m, x2.xi))
    return FunctionalVectorField(
        m, q1, q2, x1.r + x2.r, base.components, Program(lay.arity, body)
    )


# -- prolongation over an algebra ---------------------------------------------


def functional_field_prolong(algebra: WeilAlgebra, field: FunctionalVectorField) -> FunctionalVectorField:
    """Flow-free prolongation to the lifted bundle, in coefficient coordinates.

    The result lives on base R^{m*dimA} with fiber maps Q1 -> A^{q2} (seen
    as q2*dimA real targets): the base part is the rendered prolongation of
    xi, the vertical part is the lift of D over A in the x and z slots with
    y kept real.
    """
    m, q1, q2, r = field.m, field.q1, field.q2, field.r
    da = algebra.dim
    pf = field_prolong(algebra, VectorField(m, field.xi))
    lay = _Layout(m * da, q1, q2 * da, r)
    env = [AlgebraElement(algebra, [Var(i * da + c) for c in range(da)]) for i in range(m)]
    outs = lift_elements(algebra, field.D, env + _fiber_env(algebra, lay))
    body = [_as_expr(c) for el in outs for c in el.coeffs]
    return FunctionalVectorField(
        m * da, q1, q2 * da, r, pf.rendering.components, Program(lay.arity, body)
    )


def check_bracket_preserved(algebra: WeilAlgebra, x1: FunctionalVectorField, x2: FunctionalVectorField, samples: int = 30, rng=None, tol: float = 1e-6) -> dict:
    """Prolonging the bracket equals the bracket of the prolongations.

    Both sides are evaluated at sampled (lifted base, polynomial lifted
    fiber map, y); the polynomial degree covers the bracket order.
    """
    return _check_prolonged_bracket(
        lambda f: functional_field_prolong(algebra, f), x1, x2, samples, rng, tol
    )


def _check_prolonged_bracket(prolong, x1: FunctionalVectorField, x2: FunctionalVectorField, samples: int, rng, tol: float) -> dict:
    """Compare prolong([x1, x2]) with [prolong(x1), prolong(x2)] at sampled
    (base point, polynomial fiber map, y) of the prolonged bundle."""
    if rng is None:
        rng = np.random.default_rng(0)
    lhs = prolong(functional_bracket(x1, x2))
    rhs = functional_bracket(prolong(x1), prolong(x2))
    deg = 2 * (x1.r + x2.r) + 1

    def deviations():
        for trial in range(samples):
            x = rng.uniform(-1.0, 1.0, size=lhs.m)
            hhat = random_poly_program(rng, lhs.q1, lhs.q2, deg=deg, scale=0.6)
            y = rng.uniform(-1.0, 1.0, size=lhs.q1)
            lb, lv = fvf_value(lhs, x, hhat, y)
            rb, rv = fvf_value(rhs, x, hhat, y)
            yield {"trial": trial}, max(
                float(np.abs(lb - rb).max(initial=0.0)),
                float(np.abs(lv - rv).max(initial=0.0)),
            )

    return tally(deviations(), tol)


# -- quotient-functor prolongation --------------------------------------------


def g_functional(triple: FunctorTriple, field: FunctionalVectorField) -> FunctionalVectorField:
    """Prolong a functional field to normalized bundle coordinates.

    Points of the prolonged bundle are (x, fiber map Q1 -> A^{q2}) with
    the frame pinned to the canonical one at x, so the base stays R^m.
    The fiber velocity is the lift of D over A at the constrained base
    block, renormalized through the moving frame with a dual parameter.
    A finite fiber R^q is the case q1 = 0, r = 0 (maps from a point), which
    is how jets.g_field_prolong runs through here.
    """
    if field.m != triple.m:
        raise ShapeMismatch("field base dimension does not match the triple")
    a = triple.algebra
    da = a.dim
    m, q1, q2, r = field.m, field.q1, field.q2, field.r
    d = dual_algebra()
    lay = _Layout(m, q1, q2 * da, r)
    # the columns of H(inverse moving frame), the vectors _combine weighs
    m_cols = list(zip(*moving_frame_dual(triple, field.xi.exprs)))

    env = base_block(triple, [Var(i) for i in range(m)])
    vel = lift_elements(a, field.D, env + _fiber_env(a, lay))

    zero = (0,) * q1
    body = []
    for s in range(q2):
        z_dual = [
            AlgebraElement(d, [Var(lay.z(zero, s * da + c)), vel[s].coeffs[c]])
            for c in range(da)
        ]
        for entry in _combine(z_dual, m_cols):
            eps = entry.coeffs[1] if isinstance(entry, AlgebraElement) else 0.0
            body.append(_as_expr(eps))
    return FunctionalVectorField(m, q1, q2 * da, r, field.xi, Program(lay.arity, body))


def check_jet_bracket_preserved(triple: FunctorTriple, x1: FunctionalVectorField, x2: FunctionalVectorField, samples: int = 30, rng=None, tol: float = 1e-6) -> dict:
    """Quotient prolongation of the bracket equals the bracket of the
    quotient prolongations, at sampled (x, fiber map, y)."""
    return _check_prolonged_bracket(
        lambda f: g_functional(triple, f), x1, x2, samples, rng, tol
    )


# -- independent oracles -------------------------------------------------------


def check_order_locality(m: int = 1, q1: int = 1, q2: int = 1, r: int = 2, samples: int = 20, rng=None, tol: float = 1e-10) -> dict:
    """Perturbing h by terms vanishing to order r+1 at y0 is invisible.

    Random order-r morphisms are evaluated on h and on h plus random
    degree-(r+1) terms centered at y0; outputs at v = y0 must agree.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    def deviations():
        for trial in range(samples):
            fiber = random_poly_program(
                rng, fiber_arity(m, q1, q2, r) + q1, q2, deg=2, scale=0.6
            )
            morph = OrderRMorphism(m, q1, q2, r, fiber)
            h1 = random_poly_program(rng, q1, q2, deg=r + 2, scale=0.6)
            y0 = rng.uniform(-0.8, 0.8, size=q1)
            body = []
            for s in range(q2):
                e = h1.exprs[s]
                for kappa in monomials(q1, r + 1, mindeg=r + 1):
                    term = Const(float(rng.uniform(-1.0, 1.0)))
                    for j, k in enumerate(kappa):
                        if k:
                            term = term * (Var(j) - float(y0[j])) ** k
                    e = e + term
                body.append(e)
            h2 = Program(q1, body)
            x = rng.uniform(-1.0, 1.0, size=m)
            p1 = FunctionalPoint(x, h1)
            p2 = FunctionalPoint(x, h2)
            yield {"trial": trial}, float(
                np.abs(morphism_apply(morph, p1, y0) - morphism_apply(morph, p2, y0)).max(
                    initial=0.0
                )
            )

    return tally(deviations(), tol)


def _poly_family_rate(field: FunctionalVectorField, d: int, nodes: np.ndarray, vander_inv: np.ndarray):
    """Induced field on (x, coefficient) space for degree-d fiber polynomials.

    Only meaningful when the field preserves the family; the fit below is
    exact the moment hdot is again a polynomial of degree <= d.
    """
    m = field.m

    def rate(w: np.ndarray) -> np.ndarray:
        x = w[:m]
        coeffs = w[m:]
        h = Program(
            1,
            [
                sum(
                    (Const(float(c)) * Var(0) ** k for k, c in enumerate(coeffs)),
                    Const(0.0),
                )
            ],
        )
        xdot = np.asarray(evaluate(field.xi, [float(v) for v in x]), dtype=float)
        vals = np.array([fvf_value(field, x, h, [t])[1][0] for t in nodes])
        return np.concatenate([xdot, vander_inv @ vals])

    return rate


def check_polynomial_family(x1: FunctionalVectorField, x2: FunctionalVectorField, d: int = 3, samples: int = 10, rng=None, tol: float = 1e-7) -> dict:
    """Brute-force bracket oracle on a polynomial-invariant family.

    For q1 = q2 = 1 fields that keep fiber polynomials of degree <= d
    polynomial, the functional bracket must agree with the Jacobian
    bracket of the induced finite-dimensional fields on coefficient
    space.  The oracle never touches the strong difference: it uses
    central finite differences of step FAMILY_FD_STEP on the induced rate
    maps.
    """
    if x1.q1 != 1 or x1.q2 != 1 or x2.q1 != 1 or x2.q2 != 1:
        raise ShapeMismatch("the family oracle is built for scalar fibers")
    if rng is None:
        rng = np.random.default_rng(0)
    m = x1.m
    nodes = np.linspace(-1.0, 1.0, d + 1)
    vander_inv = np.linalg.inv(np.vander(nodes, d + 1, increasing=True))
    f1 = _poly_family_rate(x1, d, nodes, vander_inv)
    f2 = _poly_family_rate(x2, d, nodes, vander_inv)
    fb = _poly_family_rate(functional_bracket(x1, x2), d, nodes, vander_inv)
    n = m + d + 1

    def jac(f, w):
        cols = []
        for j in range(n):
            wp, wm = w.copy(), w.copy()
            wp[j] += FAMILY_FD_STEP
            wm[j] -= FAMILY_FD_STEP
            cols.append((f(wp) - f(wm)) / (2.0 * FAMILY_FD_STEP))
        return np.array(cols).T

    def deviations():
        for trial in range(samples):
            w = rng.uniform(-0.8, 0.8, size=n)
            want = jac(f2, w) @ f1(w) - jac(f1, w) @ f2(w)
            got = fb(w)
            yield {"trial": trial}, float(np.abs(want - got).max(initial=0.0))

    return tally(deviations(), tol)
