"""Calculus over Weil algebras.

Finite-dimensional nilpotent extensions of the reals drive a pile of
constructions that all reduce to bookkeeping on coefficient vectors:
higher-order forward-mode lifting of programs, the strong difference and
the bracket it induces, prolongation of vector fields to lifted spaces,
jet groups with their canonical actions, and finite-order calculus on
function-space bundles.  The `cli` module wires the verification suites
behind the `weilcalc` command.
"""

from .algebra import (
    AlgebraElement,
    AlgebraHom,
    WeilAlgebra,
    algebra_from_json,
    algebra_to_json,
    exchange,
    hom_tensor,
    identity_hom,
    make_basic,
    make_hom,
    rho,
    save_algebra,
    sum_algebra,
    tensor,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    DivisionByNilpotent,
    DomainError,
    IncompatiblePair,
    InvariantViolation,
    NonProjectable,
    NotMultiplicative,
    NotUnital,
    ShapeMismatch,
    SingularLinearPart,
    WeilError,
)
from .exprs import Const, Expr, Var, format_expr, prim, simplify
from .functional import (
    FunctionalVectorField,
    functional_bracket,
    functional_field_from_json,
    functional_field_prolong,
    functional_field_to_json,
    fvf_value,
    g_functional,
)
from .functor import (
    WeilPoint,
    flatten,
    lift,
    lift_program,
    point_from_flat,
    transform,
    unflatten,
)
from .jets import (
    FunctorTriple,
    JetGroupElement,
    canonical_H,
    frame_prolong,
    g_field_prolong,
    identity_jet,
    jet_compose,
    jet_invert,
    jet_triple,
    make_triple,
)
from .programs import (
    Program,
    VectorField,
    compose,
    evaluate,
    field_from_json,
    field_to_json,
    jacobian_oracle,
    program_from_json,
    program_to_json,
)
from .prolong import ProlongedField, field_prolong
from .reports import CONVENTIONS, assemble_document, rng_for
from .strongdiff import (
    SPair,
    SecondTangent,
    bracket,
    bracket_value,
    k_map,
    make_S,
    s_bundle,
    strong_diff,
)

__version__ = "0.1.0"
