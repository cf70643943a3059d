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

The prolongation over an algebra A keeps the base over A and turns fiber
maps into programs Q1 -> A^{q2}; their output layout is target-major, the
dim-A coefficients of target coordinate s occupying slots s*dimA..
(s+1)*dimA-1, matching the flat layout of lifted points elsewhere.

The polynomial-family oracle renders the motion a scalar-fibre field
induces on (x, fibre polynomial coefficients) as a VectorField, so its
Jacobian bracket runs on the code of the bracket units.
"""

from __future__ import annotations

import math

import numpy as np

from ._monomials import add_indices, factorial_multi, monomial_index, monomials
from .algebra import MAX_DIM, AlgebraElement, WeilAlgebra, make_basic
from .errors import ArityMismatch, ShapeMismatch
from .exprs import Const, Expr, Var
from .functor import lift_elements, point_from_flat
from .jets import FunctorTriple, _combine, base_block, moving_frame_dual
from .programs import (
    Program,
    VectorField,
    evaluate,
    evaluate_dual,
    evaluate_points,
    jacobian_oracle,
    program_from_json,
    program_to_json,
    poly_template,
    random_poly_program,
    run_points,
    sampled_deviations,
    stack_columns,
    trial_rows,
)
from .prolong import field_prolong
from .reports import tally
from .strongdiff import bracket, jacobian_bracket


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


def fiber_arity(m: int, q1: int, q2: int, r: int) -> int:
    """Input arity of an order-r associated-map program."""
    return _Layout(m, q1, q2, r).arity


def layout_names(m: int, q1: int, q2: int, r: int) -> list:
    """Variable names of an order-r associated-map program, in layout
    order: x0.., y0.., then z<alpha digits>, suffixed _s for target s
    when q2 > 1."""
    names = ["x%d" % i for i in range(m)] + ["y%d" % j for j in range(q1)]
    for alpha in _Layout(m, q1, q2, r).monos:
        stem = "z" + "".join(str(k) for k in alpha)
        if q2 == 1:
            names.append(stem)
        else:
            names.extend("%s_%d" % (stem, s) for s in range(q2))
    return names


def _as_expr(v) -> Expr:
    return v if isinstance(v, Expr) else Const(float(v))


def _fiber_env(algebra: WeilAlgebra, lay: _Layout) -> list:
    """The y and z_alpha arguments of D lifted over A, in lay's variables.

    y stays real (its variable in the unit slot); each z_alpha coordinate
    is a full element over A, read from lay's dim-A coefficient slots.
    """
    env = [algebra.unit(Var(lay.m + j)) for j in range(lay.q1)]
    for alpha in lay.monos:
        block = [Var(lay.z(alpha, t)) for t in range(lay.q2)]
        env.extend(point_from_flat(algebra, lay.q2 // algebra.dim, block).coords)
    return env


# -- jets of fiber maps -----------------------------------------------------


def _jets(h: Program, args, r: int) -> list:
    """D^alpha h, |alpha| <= r, alpha-major flat, at `args` (the q1
    coordinates, then h's parameters) over any carrier: h lifted over
    truncated(q1, r) at the point, its Taylor coefficients scaled back by
    alpha factorial."""
    q1 = h.arity_in
    if r == 0:
        return evaluate(h, args)
    t = make_basic("truncated", q1, r)
    gens = t.generator_elements()
    outs = lift_elements(t, h, [gens[j] + args[j] for j in range(q1)] + args[q1:])
    return [float(factorial_multi(alpha)) * el.coeffs[i] for i, alpha in enumerate(monomials(q1, r)) for el in outs]


def jet_values(h: Program, y, r: int) -> np.ndarray:
    """Plain derivatives D^alpha h(y), |alpha| <= r, alpha-major flat.

    `y` is a point's q1 coordinates followed by h's parameters, or a
    (B, q1 + params) block of such rows that gives a (B, k) array from one
    `run_points` call of `_jets`.
    """
    return run_points(y, lambda args, count: stack_columns(_jets(h, args, r), count))


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
    """(base velocity, fiber velocity at y) for a sampled (x, h, y); `y`
    holds the q1 coordinates followed by h's parameters."""
    if h.arity_in != field.q1 or h.arity_out != field.q2:
        raise ArityMismatch("fiber map signature does not match the field")
    x = [float(v) for v in x]
    if len(x) != field.m:
        raise ArityMismatch("base point has wrong dimension")
    y = [float(v) for v in y]
    z = jet_values(h, y, field.r)
    xdot = np.asarray(evaluate(field.xi, x), dtype=float)
    hdot = np.asarray(evaluate(field.D, x + y[: field.q1] + list(z)), dtype=float)
    return xdot, hdot


FIELD_KEYS = frozenset({"m", "q1", "q2", "r", "xi", "D"})


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
    """Load a field document; its signature must name a bundle over R^m,
    m >= 1, whose jets of order r > 0 have a source fibre to vary in and
    fit in truncated(q1, r) of dim at most MAX_DIM."""
    if not isinstance(data, dict) or set(data) != FIELD_KEYS:
        raise ShapeMismatch(
            "functional field document needs exactly the keys m, q1, q2, r, xi, D"
        )
    for key in ("m", "q1", "q2", "r"):
        if isinstance(data[key], bool) or not isinstance(data[key], int) or data[key] < 0:
            raise ShapeMismatch("functional field %r must be a non-negative integer" % key)
    if data["m"] < 1:
        raise ShapeMismatch("a functional field needs m >= 1, got %d" % data["m"])
    q1, r = data["q1"], data["r"]
    if r > 0 and q1 == 0:
        raise ShapeMismatch("a functional field of order %d needs q1 >= 1" % r)
    # its jets lift over truncated(q1, r): refuse that algebra before any
    # layout lists its monomials; the max() test, implied by the comb one,
    # keeps math.comb off huge arguments
    if r > 0 and (max(q1, r) >= MAX_DIM or math.comb(q1 + r, r) > MAX_DIM):
        raise ShapeMismatch(
            "a functional field of order %d over q1 = %d needs truncated(%d,%d), past dim %d"
            % (r, q1, q1, r, MAX_DIM)
        )
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
        outs = evaluate(src.D, env)
        return {(0,) * q1: [_as_expr(e) for e in outs]}
    t = make_basic("truncated", q1, r_to)
    tmon = monomials(q1, r_to)
    tidx = monomial_index(q1, r_to)
    gens = t.generator_elements()
    env = [t.unit(Var(i)) for i in range(m)]
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

    def mixed(along: FunctionalVectorField, of: FunctionalVectorField) -> list:
        jets = _generator_jets(along, of.r, lay)
        values = [Var(i) for i in range(m + q1)]
        slopes = list(along.xi.exprs) + [0.0] * q1
        for beta in monomials(q1, of.r):
            values += [Var(lay.z(beta, s)) for s in range(q2)]
            slopes += jets[beta]
        return evaluate_dual(of.D, values, slopes)[1]

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
    x = point_from_flat(algebra, m, [Var(k) for k in range(m * da)])
    outs = lift_elements(algebra, field.D, [*x.coords, *_fiber_env(algebra, lay)])
    body = [_as_expr(c) for el in outs for c in el.coeffs]
    return FunctionalVectorField(
        m * da, q1, q2 * da, r, pf.rendering.components, Program(lay.arity, body)
    )


# -- quotient-functor prolongation --------------------------------------------


def g_functional(triple: FunctorTriple, field: FunctionalVectorField) -> FunctionalVectorField:
    """Prolong a functional field to normalized bundle coordinates.

    Points of the prolonged bundle are (x, fiber map Q1 -> A^{q2}) with
    the frame pinned to the canonical one at x, so the base stays R^m.
    The fiber velocity is the lift of D over A at the constrained base
    block, renormalized through the moving frame with a dual parameter.
    A finite fiber R^q is the case q1 = 0, r = 0 (maps from a point), and
    jets.g_field_prolong stacks the same vertical body on its base field.
    """
    body = _normalized_vertical(triple, field)
    m, q1, q2, r = field.m, field.q1, field.q2 * triple.algebra.dim, field.r
    return FunctionalVectorField(m, q1, q2, r, field.xi, Program(fiber_arity(m, q1, q2, r), body))


def _normalized_vertical(triple: FunctorTriple, field: FunctionalVectorField) -> list:
    """The fiber velocity of g_functional as expressions over its layout."""
    if field.m != triple.m:
        raise ShapeMismatch("field base dimension does not match the triple")
    a = triple.algebra
    da = a.dim
    m, q1, q2, r = field.m, field.q1, field.q2, field.r
    d = make_basic("dual")
    lay = _Layout(m, q1, q2 * da, r)
    # the columns of H(inverse moving frame), the vectors _combine weighs
    m_cols = list(zip(*moving_frame_dual(triple, field.xi)))

    env = base_block(triple, [Var(i) for i in range(m)])
    params = [Var(k) for k in range(lay.arity, lay.arity + field.D.params)]
    vel = lift_elements(a, field.D, env + _fiber_env(a, lay) + params)

    zero = (0,) * q1
    z0 = point_from_flat(a, q2, [Var(lay.z(zero, t)) for t in range(q2 * da)])
    body = []
    for z, v in zip(z0.coords, vel):
        z_dual = [AlgebraElement(d, pair) for pair in zip(z.coeffs, v.coeffs)]
        for entry in _combine(z_dual, m_cols):
            eps = entry.coeffs[1] if isinstance(entry, AlgebraElement) else 0.0
            body.append(_as_expr(eps))
    return body


def check_bracket_preserved(prolong, x1: FunctionalVectorField, x2: FunctionalVectorField, *, rng, samples: int, tol: float) -> dict:
    """A prolongation preserves the bracket: prolong([x1, x2]) equals
    [prolong(x1), prolong(x2)].

    `prolong` maps a functional field to its prolongation, over an algebra
    (functional_field_prolong) or through a functor triple (g_functional).
    Both sides are evaluated at sampled (base point, polynomial fiber map,
    y) of the prolonged bundle; the polynomial degree covers the bracket
    order.  The fiber map is one template; a column run of jet_values
    at every trial's coefficients gives its row (x, y, jets of the fiber
    map at y), and both sides' xi and D run on all rows as columns.
    """
    lhs = prolong(functional_bracket(x1, x2))
    rhs = functional_bracket(prolong(x1), prolong(x2))
    hhat = poly_template(lhs.q1, lhs.q2, 2 * (x1.r + x2.r) + 1)
    draws = trial_rows(rng, samples, (-1.0, 1.0, lhs.m), (-0.6, 0.6, hhat.params), (-1.0, 1.0, lhs.q1))
    x, coeffs, y = np.split(draws, [lhs.m, lhs.m + hhat.params], axis=1)
    rows = np.hstack([x, y, jet_values(hhat, np.hstack([y, coeffs]), lhs.r)])

    def gaps(pts):
        sides = [np.concatenate([evaluate_points(f.xi, pts[..., : f.m]), evaluate_points(f.D, pts)], axis=-1)
                 for f in (lhs, rhs)]
        return np.abs(sides[0] - sides[1]).max(axis=-1, initial=0.0)

    return tally(sampled_deviations([(0, rows)], gaps, samples), tol)


# -- independent oracles -------------------------------------------------------


def check_order_locality(m: int, q1: int, q2: int, r: int, *, rng, samples: int, tol: float) -> dict:
    """Perturbing h by terms vanishing to order r+1 at y0 is invisible.

    A random order-r associated map, a program over (x, y, z_alpha blocks,
    v), is evaluated at y = v = y0 on the jets of h and of h plus random
    degree-(r+1) terms centered at y0; the two outputs must agree.  The
    map, h and the perturbed h are templates, and the perturbed h takes
    y0 and the terms' weights after h's coefficients.  A trial's row is
    its draws in turn: the map's and h's coefficients, y0, the weights, x.
    """
    fiber = poly_template(fiber_arity(m, q1, q2, r) + q1, q2, 2)
    h = poly_template(q1, q2, r + 2)
    kappas = monomials(q1, r + 1, mindeg=r + 1)
    y0 = [Var(q1 + h.params + j) for j in range(q1)]
    weights = iter(Var(k) for k in range(2 * q1 + h.params, 2 * q1 + h.params + q2 * len(kappas)))
    body = []
    for e in h.exprs:
        for kappa in kappas:
            term = next(weights)
            for j, k in enumerate(kappa):
                if k:
                    term = term * (Var(j) - y0[j]) ** k
            e = e + term
        body.append(e)
    h2 = Program(q1, body, params=h.params + q1 + q2 * len(kappas))
    ranges = [(-0.6, 0.6, fiber.params), (-0.6, 0.6, h.params), (-0.8, 0.8, q1), (-1.0, 1.0, q2 * len(kappas))]
    rows = trial_rows(rng, samples, *ranges, (-1.0, 1.0, m))
    cuts = np.cumsum([size for _, _, size in ranges])

    def gaps(pts):
        fc, hc, y, w, x = np.split(pts, cuts, axis=-1)

        def apply(prog, params):
            z = jet_values(prog, np.concatenate([y, params], axis=-1), r)
            return evaluate_points(fiber, np.concatenate([x, y, z, y, fc], axis=-1))

        return np.abs(apply(h, hc) - apply(h2, np.concatenate([hc, y, w], axis=-1))).max(axis=-1, initial=0.0)

    return tally(sampled_deviations([(0, rows)], gaps, samples), tol)


def _family_field(field: FunctionalVectorField, d: int) -> VectorField:
    """The motion a q1 = q2 = 1 field induces on (x, c), c the coefficients
    of the fibre polynomial c_0 + .. + c_d y^d, as a field on R^{m+d+1}:
    xi, then the inverse Vandermonde fit of D(x, t_j, `_jets` at t_j) at
    d+1 nodes t_j of [-1, 1].  The fit is exact when the field keeps the
    family, so that hdot is again a polynomial of degree <= d."""
    m = field.m
    nodes = np.linspace(-1.0, 1.0, d + 1)
    vander_inv = np.linalg.inv(np.vander(nodes, d + 1, increasing=True))
    h = poly_template(1, 1, d)
    x = [Var(i) for i in range(m)]
    c = [Var(m + k) for k in range(d + 1)]
    vals = [evaluate(field.D, x + [t] + _jets(h, [t, *c], field.r))[0] for t in nodes.tolist()]
    fit = [_as_expr(sum(v * val for v, val in zip(row, vals))) for row in vander_inv.tolist()]
    return VectorField(m + d + 1, Program(m + d + 1, [*field.xi.exprs, *fit]))


def check_polynomial_family(x1: FunctionalVectorField, x2: FunctionalVectorField, d: int, *, rng, samples: int, tol: float) -> dict:
    """Brute-force bracket oracle on a polynomial-invariant family.

    For q1 = q2 = 1 fields that keep fiber polynomials of degree <= d
    polynomial, the functional bracket must agree with the Jacobian
    bracket of the induced finite-dimensional fields on coefficient
    space (`_family_field`), with Jacobians from `jacobian_oracle`: the
    oracle never touches the strong difference.  All trials' points
    (x, c) are drawn at once and run as one block.
    """
    if x1.q1 != 1 or x1.q2 != 1 or x2.q1 != 1 or x2.q2 != 1:
        raise ShapeMismatch("the family oracle is built for scalar fibers")
    f1, f2, fb = (_family_field(f, d).components for f in (x1, x2, functional_bracket(x1, x2)))

    def gaps(pts):
        want = jacobian_bracket(*(op(f, pts) for f in (f1, f2) for op in (jacobian_oracle, evaluate_points)))
        return np.abs(want - evaluate_points(fb, pts)).max(axis=-1, initial=0.0)

    block = rng.uniform(-0.8, 0.8, size=(samples, x1.m + d + 1))
    return tally(sampled_deviations([(0, block)], gaps, samples), tol)
