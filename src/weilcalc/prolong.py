"""Prolonging vector fields to lifted spaces.

The prolongation of a field X on R^n over an algebra of dimension d is a
field on R^{n*d}: evaluate X with the n coordinate elements as arguments
and read the coefficient blocks back off.  Coordinates are coordinate
major, so coefficient a of coordinate i sits at flat index i*d + a and the
real parts form the base copy of R^n.

Small algebras additionally get a symbolic rendering as an ordinary
Program; the constructor spot-checks the rendering against pointwise
evaluation before handing it out.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import WeilAlgebra
from .errors import DivisionByNilpotent, DomainError, InvariantViolation, ShapeMismatch
from .functor import lift_elements, lift_program, point_from_flat
from .programs import VectorField, evaluate
from .reports import tally
from .strongdiff import bracket, bracket_value

RENDER_LIMIT = 8
_SPOT_TOL = 1e-10


class ProlongedField:
    """A field X prolonged over an algebra, with optional rendering."""

    __slots__ = ("algebra", "base_field", "dim", "rendering")

    def __init__(self, algebra: WeilAlgebra, base_field: VectorField, render_limit: int = RENDER_LIMIT):
        self.algebra = algebra
        self.base_field = base_field
        self.dim = base_field.dim * algebra.dim
        self.rendering = None
        if algebra.dim <= render_limit:
            prog = lift_program(algebra, base_field.components)
            self.rendering = VectorField(self.dim, prog)
            self._spot_check()

    def value_at(self, flat) -> np.ndarray:
        """Pointwise velocity via evaluation over the algebra carrier."""
        p = point_from_flat(self.algebra, self.base_field.dim, flat)
        outs = lift_elements(self.algebra, self.base_field.components, p.coords)
        return np.array([[float(c) for c in el.coeffs] for el in outs]).reshape(-1)

    def _spot_check(self):
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
            rendered = np.array(evaluate(self.rendering.components, [float(v) for v in pt]))
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


def field_prolong(algebra: WeilAlgebra, field: VectorField, render_limit: int = RENDER_LIMIT) -> ProlongedField:
    return ProlongedField(algebra, field, render_limit=render_limit)


def check_base_projection(pf: ProlongedField, samples: int = 10, rng=None, box: float = 1.0) -> dict:
    """Real parts of the prolonged velocity equal the field at the real parts."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = pf.base_field.dim
    u = pf.algebra.unit_index
    d = pf.algebra.dim

    def deviations():
        for trial in range(samples):
            flat = rng.uniform(-box, box, size=pf.dim)
            vel = pf.value_at(flat).reshape(n, d)
            base_vel = np.array(
                evaluate(pf.base_field.components, [float(v) for v in pf.base_values(flat)])
            )
            yield {"trial": trial}, float(np.abs(vel[:, u] - base_vel).max(initial=0.0))

    # no acceptance threshold: only a NaN comparison is recorded as a failure
    return tally(deviations(), math.inf)


def bracket_deviations(algebra: WeilAlgebra, x_field: VectorField, y_field: VectorField, samples: int, rng, box: float = 1.0):
    """(tag, deviation) pairs of check_bracket_preserved, one per sampled point."""
    if x_field.dim != y_field.dim:
        raise ShapeMismatch("fields live on different spaces")
    lhs = field_prolong(algebra, bracket(x_field, y_field))
    px = field_prolong(algebra, x_field)
    py = field_prolong(algebra, y_field)
    if px.rendering is None or py.rendering is None:
        raise ShapeMismatch(
            "algebra dim %d too large to render; raise render_limit" % algebra.dim
        )
    for trial in range(samples):
        flat = rng.uniform(-box, box, size=lhs.dim)
        want = lhs.value_at(flat)
        got = bracket_value(px.rendering, py.rendering, flat)
        yield {"trial": trial}, float(np.abs(want - got).max(initial=0.0))


def check_bracket_preserved(algebra: WeilAlgebra, x_field: VectorField, y_field: VectorField, samples: int = 30, rng=None, tol: float = 1e-7, box: float = 1.0) -> dict:
    """Prolonging the bracket equals the bracket of the prolongations.

    The left side prolongs the symbolic bracket and evaluates it pointwise
    over the algebra carrier; the right side takes the pointwise bracket of
    the two rendered prolongations.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return tally(bracket_deviations(algebra, x_field, y_field, samples, rng, box), tol)
