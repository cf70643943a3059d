"""Prolonging vector fields to lifted spaces.

The prolongation of a field X on R^n over an algebra of dimension d is a
field on R^{n*d}: evaluate X with the n coordinate elements as arguments
and read the coefficient blocks back off.  Coordinates are coordinate
major, so coefficient a of coordinate i sits at flat index i*d + a and the
real parts form the base copy of R^n; `functor.point_from_flat` owns that
layout.

`value_at` takes one point or a block of points through `run_points`; a
block runs the field's tape once over algebra elements whose coefficients
are columns (one entry per point), not once per point.

The symbolic rendering as an ordinary Program is built on first read of
`rendering`, for an algebra of any size, and spot-checked against
pointwise evaluation before it is handed out.

A field's parameters are not prolonged: the prolonged field takes them,
unchanged, after the n*d flat coordinates.  `bracket_deviations` runs
many field pairs as parameter rows of one pair of templates, so the
bracket is formed and each field rendered once for all of them; its
block loop and tags are `programs.sampled_deviations`'.
"""

from __future__ import annotations

import numpy as np

from .algebra import WeilAlgebra
from .errors import DivisionByNilpotent, DomainError, InvariantViolation
from .functor import lift_elements, lift_program, point_from_flat
from .programs import VectorField, evaluate_points, pair_blocks, run_columns, run_points, sampled_deviations, stack_columns
from .reports import tally
from .strongdiff import bracket, bracket_value

_SPOT_TOL = 1e-10
# real parts of a lift are the plain float evaluation; measured gaps stay below 1e-15
_BASE_TOL = 1e-12


class ProlongedField:
    """A field X prolonged over an algebra, rendered on first use."""

    __slots__ = ("algebra", "base_field", "dim", "_rendering")

    def __init__(self, algebra: WeilAlgebra, base_field: VectorField):
        self.algebra = algebra
        self.base_field = base_field
        self.dim = base_field.dim * algebra.dim
        self._rendering = None

    @property
    def rendering(self) -> VectorField:
        """`rendering_at` for a field without parameters."""
        return self.rendering_at(np.empty((1, 0)))

    def rendering_at(self, rows) -> VectorField:
        """The prolongation as a field on R^{n*d}, with the base field's
        parameters after its coordinates; built on first read.

        Every read spot-checks it at two fixed points with each row of
        parameter values in `rows` in turn, raising InvariantViolation if
        the check fails.
        """
        rendering = self._rendering
        if rendering is None:
            rendering = VectorField(self.dim, lift_program(self.algebra, self.base_field.components))
        self._spot_check(rendering, rows)
        self._rendering = rendering
        return rendering

    def value_at(self, flat) -> np.ndarray:
        """Pointwise velocity via evaluation over the algebra carrier.

        `flat` is one point of R^{n*d}, followed by the base field's
        parameters, or a (B, n*d + params) block of such points that gives
        a (B, n*d) array from one `run_points` call.
        """

        def velocity(args, count):
            p = point_from_flat(self.algebra, self.base_field.dim, args[: self.dim])
            outs = lift_elements(self.algebra, self.base_field.components, [*p.coords, *args[self.dim :]])
            return stack_columns([c for el in outs for c in el.coeffs], count)

        return run_points(flat, velocity)

    def _spot_check(self, rendering: VectorField, rows):
        # two fixed points with each row of parameters, as one block; skip
        # any point where the field itself is undefined
        pts = [
            np.linspace(-0.7, 0.7, self.dim),
            np.linspace(0.9, 0.3, self.dim),
        ]
        block = np.array([np.concatenate([pt, row]) for row in rows for pt in pts])

        def gaps(x):
            # one gap for a point, one per row for a block; an undefined
            # point gives none, and a block holding one runs point by point
            try:
                direct = self.value_at(x)
            except (DomainError, DivisionByNilpotent):
                if np.ndim(x) == 2:
                    raise
                return 0.0
            return np.abs(direct - evaluate_points(rendering.components, x)).max(axis=-1, initial=0.0)

        for dev in run_columns(block, gaps, gaps):
            if dev > _SPOT_TOL:
                raise InvariantViolation(
                    "rendering disagrees with pointwise lift", worst=float(dev)
                )

    def base_values(self, flat) -> np.ndarray:
        """Real parts of the point, i.e. its image under the base projection;
        for a block of points, one row per point."""
        return np.asarray(flat, dtype=float)[..., self.algebra.unit_index :: self.algebra.dim]

    def __repr__(self):
        return "ProlongedField(%s, base dim %d)" % (self.algebra.name, self.base_field.dim)


def field_prolong(algebra: WeilAlgebra, field: VectorField) -> ProlongedField:
    return ProlongedField(algebra, field)


def check_base_projection(pf: ProlongedField, *, rng, samples: int) -> dict:
    """Real parts of the prolonged velocity equal the field at the real parts.

    The points are one (samples, n*d) block drawn from the cube [-1, 1]^{n*d}.
    """
    base = pf.base_field.components

    def gaps(pts):
        # one gap for a point, one per row for a block
        vel = pf.base_values(pf.value_at(pts))
        want = evaluate_points(base, pf.base_values(pts))
        return np.abs(vel - want).max(axis=-1, initial=0.0)

    block = rng.uniform(-1.0, 1.0, size=(samples, pf.dim))
    return tally(sampled_deviations([(0, block)], gaps, samples), _BASE_TOL)


def bracket_deviations(algebra: WeilAlgebra, x_field: VectorField, y_field: VectorField, pairs: int, samples: int, rng):
    """`sampled_deviations` of |prolong([X, Y]) - [prolong X, prolong Y]|
    at `samples` points of the cube [-1, 1]^{n*d} for each of `pairs` draws
    of the fields' parameters, drawn as the column blocks of `pair_blocks`.

    The bracket is formed, and each field rendered over the algebra, once
    for all pairs; the renderings are spot-checked at every pair's
    parameter rows before any block runs.
    """
    lhs = field_prolong(algebra, bracket(x_field, y_field))
    px = field_prolong(algebra, x_field)
    py = px if y_field is x_field else field_prolong(algebra, y_field)
    width, nx = lhs.dim, x_field.components.params
    blocks = list(pair_blocks(rng, x_field, y_field, width, pairs, samples))
    params = np.vstack([block[::samples, width:] for _, block in blocks])
    gaps = bracket_gaps(lhs.value_at, px.rendering_at(params[:, :nx]), py.rendering_at(params[:, nx:]))
    return sampled_deviations(blocks, gaps, samples)


def bracket_gaps(lhs, rx: VectorField, ry: VectorField):
    """|lhs(p) - [rx, ry](p)|: one gap for a point, one per row for a block."""

    def gaps(pts):
        return np.abs(lhs(pts) - bracket_value(rx, ry, pts)).max(axis=-1, initial=0.0)

    return gaps
