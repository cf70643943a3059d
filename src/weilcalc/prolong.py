"""Prolonging vector fields to lifted spaces.

The prolongation of a field X on R^n over an algebra of dimension d is a
field on R^{n*d}: evaluate X with the n coordinate elements as arguments
and read the coefficient blocks back off.  Coordinates are coordinate
major, so coefficient a of coordinate i sits at flat index i*d + a and the
real parts form the base copy of R^n.

`value_at` takes one point or a block of points; a block runs the field's
tape once over algebra elements whose coefficients are columns (one entry
per point), not once per point.

The symbolic rendering as an ordinary Program is built on first read of
`rendering`, for an algebra of any size, and spot-checked against
pointwise evaluation before it is handed out.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import WeilAlgebra
from .errors import DivisionByNilpotent, DomainError, InvariantViolation, ShapeMismatch
from .functor import lift_elements, lift_program, point_from_flat
from .programs import VectorField, evaluate, run_columns, stack_columns
from .reports import tally
from .strongdiff import bracket, bracket_value

_SPOT_TOL = 1e-10


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
        """The prolongation as a field on R^{n*d}; built and spot-checked
        on first read, raising InvariantViolation if the check fails."""
        if self._rendering is None:
            prog = lift_program(self.algebra, self.base_field.components)
            rendering = VectorField(self.dim, prog)
            self._spot_check(rendering)
            self._rendering = rendering
        return self._rendering

    def value_at(self, flat) -> np.ndarray:
        """Pointwise velocity via evaluation over the algebra carrier.

        `flat` is one point of R^{n*d}, or a (B, n*d) block of points that
        runs as columns through `run_columns` and gives a (B, n*d) array.
        """
        if np.ndim(flat) == 2:
            return run_columns(flat, self._columns_at, self.value_at)
        p = point_from_flat(self.algebra, self.base_field.dim, flat)
        outs = lift_elements(self.algebra, self.base_field.components, p.coords)
        return np.array([[float(c) for c in el.coeffs] for el in outs]).reshape(-1)

    def _columns_at(self, block: np.ndarray) -> np.ndarray:
        # elements whose coefficients are columns: one tape run for the block
        p = point_from_flat(self.algebra, self.base_field.dim, block.T)
        outs = lift_elements(self.algebra, self.base_field.components, p.coords)
        return stack_columns([c for el in outs for c in el.coeffs], len(block))

    def _spot_check(self, rendering: VectorField):
        # two fixed points; skip any where the field itself is undefined
        pts = [
            np.linspace(-0.7, 0.7, self.dim),
            np.linspace(0.9, 0.3, self.dim),
        ]
        for pt in pts:
            try:
                direct = self.value_at(pt)
            except (DomainError, DivisionByNilpotent):
                continue
            rendered = np.array(evaluate(rendering.components, [float(v) for v in pt]))
            dev = float(np.abs(direct - rendered).max(initial=0.0))
            if dev > _SPOT_TOL:
                raise InvariantViolation(
                    "rendering disagrees with pointwise lift", worst=dev
                )

    def base_values(self, flat) -> np.ndarray:
        """Real parts of the point, i.e. its image under the base projection."""
        d = self.algebra.dim
        u = self.algebra.unit_index
        return np.asarray(flat, dtype=float).reshape(-1, d)[:, u]

    def __repr__(self):
        return "ProlongedField(%s, base dim %d)" % (self.algebra.name, self.base_field.dim)


def field_prolong(algebra: WeilAlgebra, field: VectorField) -> ProlongedField:
    return ProlongedField(algebra, field)


def check_base_projection(pf: ProlongedField, samples: int = 10, rng=None) -> dict:
    """Real parts of the prolonged velocity equal the field at the real parts."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = pf.base_field.dim
    u = pf.algebra.unit_index
    d = pf.algebra.dim

    def deviations():
        for trial in range(samples):
            flat = rng.uniform(-1.0, 1.0, size=pf.dim)
            vel = pf.value_at(flat).reshape(n, d)
            base_vel = np.array(
                evaluate(pf.base_field.components, [float(v) for v in pf.base_values(flat)])
            )
            yield {"trial": trial}, float(np.abs(vel[:, u] - base_vel).max(initial=0.0))

    # no acceptance threshold: only a NaN comparison is recorded as a failure
    return tally(deviations(), math.inf)


def bracket_deviations(algebra: WeilAlgebra, x_field: VectorField, y_field: VectorField, samples: int, rng):
    """(tag, deviation) pairs of check_bracket_preserved, one per sampled point.

    Both renderings are read before the first draw, so a failed spot check
    stops the comparison before it consumes any randomness.
    """
    if x_field.dim != y_field.dim:
        raise ShapeMismatch("fields live on different spaces")
    lhs = field_prolong(algebra, bracket(x_field, y_field))
    rx = field_prolong(algebra, x_field).rendering
    ry = field_prolong(algebra, y_field).rendering

    def gaps(pts):
        # one gap for a point, one per row for a block
        return np.abs(lhs.value_at(pts) - bracket_value(rx, ry, pts)).max(axis=-1, initial=0.0)

    block = rng.uniform(-1.0, 1.0, size=(samples, lhs.dim))
    for trial, dev in enumerate(run_columns(block, gaps, gaps)):
        yield {"trial": trial}, float(dev)


def check_bracket_preserved(algebra: WeilAlgebra, x_field: VectorField, y_field: VectorField, samples: int = 30, rng=None, tol: float = 1e-7) -> dict:
    """Prolonging the bracket equals the bracket of the prolongations.

    The left side prolongs the symbolic bracket and evaluates it pointwise
    over the algebra carrier; the right side takes the pointwise bracket of
    the two rendered prolongations.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return tally(bracket_deviations(algebra, x_field, y_field, samples, rng), tol)
