"""Exact discrete harmonic polynomials and exit-time characteristics for
two-dimensional lattice random walks killed at leaving a wedge.

The package builds, by constructive linear algebra over exact scalar
fields, the positive harmonic polynomial of a normalized walk in a wedge
of opening pi/m, the polynomials giving exact moments of the exit time,
and an independent trigonometric-series construction of the same objects.
A Monte Carlo simulator cross-checks every exact quantity.

The simulator and the self-test suite are loaded on first use of their
names, so the exact machinery imports without them.  The simulator loads
numpy with its first step or draw; configs, reports, the check table and
every refusal do not need it.

``__all__`` is the supported surface: every call of one of its names
returns a result or raises a :class:`ConewalkError`.  The oracles' own
helpers (the trigonometric series of :mod:`conewalk.alt`,
``linsys.kernel_dimension``, ``poly.boundary_ratio``,
``scalars.sqrt_fraction``) are imported from their modules.
"""

from .alt import build_harmonic_alt, eliminate_monomial
from .cones import ConeSpec, cone_from_slope, make_cone
from .drift import drift_expansion, one_step_residual
from .errors import (
    AngleNotRepresentable,
    AngleOutOfRange,
    BoundaryPointError,
    ConewalkError,
    DegenerateCorrelation,
    DegreeTooHigh,
    InsufficientMoments,
    InsufficientSurvivors,
    InternalError,
    MomentCheckInvalid,
    MomentNotFinite,
    ResonantDegree,
    SingularAngle,
    StartNotInterior,
    ValidationError,
)
from .exits import (
    ExitPositionMoments,
    MomentPolyResult,
    exit_position_moments,
    first_moment_poly,
    poisson_solve,
    tau_moment_poly,
)
from .harmonic import (
    AngleClassification,
    HarmonicResult,
    check_low_degree_uniqueness,
    construct_harmonic,
    converse_angle_test,
    vanishes_on_boundary,
)
from .linsys import (
    BoundaryMatrix,
    OddTriangularization,
    build_matrix,
    pivot_identity_residual,
    solve_system,
    solve_system_recursive,
    triangularize_odd,
)
from .poly import Poly, im_power, laplacian, re_power
from .scalars import (
    Backend,
    FloatBackend,
    QuadElement,
    QuadraticBackend,
    RATIONAL,
    RationalBackend,
    backend_from_name,
    bigfloat,
    format_scalar,
    quadratic,
)
from .walks import (
    MomentTable,
    TransformInfo,
    WalkSpec,
    build_transform,
    builtin_walks,
    check_no_overshoot,
    cone_for_walk,
    diagonal_walk,
    push_moments,
    simple_walk,
    skewed_walk,
)

__version__ = "0.1.0"

_LAZY = {
    "CheckResult": "sim",
    "SimConfig": "sim",
    "SimReport": "sim",
    "sample_exit": "sim",
    "PropertyResult": "diagnostics",
    "self_test": "diagnostics",
}


def __getattr__(name):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "AngleClassification", "AngleNotRepresentable", "AngleOutOfRange", "Backend", "BoundaryMatrix",
    "BoundaryPointError", "CheckResult", "ConeSpec", "ConewalkError", "DegenerateCorrelation",
    "DegreeTooHigh", "ExitPositionMoments", "FloatBackend", "HarmonicResult", "InsufficientMoments",
    "InsufficientSurvivors", "InternalError", "MomentCheckInvalid", "MomentNotFinite",
    "MomentPolyResult", "MomentTable", "OddTriangularization", "Poly", "PropertyResult",
    "QuadElement", "QuadraticBackend", "RATIONAL", "RationalBackend", "ResonantDegree", "SimConfig",
    "SimReport", "SingularAngle", "StartNotInterior", "TransformInfo", "ValidationError",
    "WalkSpec", "backend_from_name", "bigfloat", "build_harmonic_alt", "build_matrix",
    "build_transform", "builtin_walks", "check_low_degree_uniqueness", "check_no_overshoot",
    "cone_for_walk", "cone_from_slope", "construct_harmonic", "converse_angle_test",
    "diagonal_walk", "drift_expansion", "eliminate_monomial", "exit_position_moments",
    "first_moment_poly", "format_scalar", "im_power", "laplacian", "make_cone", "one_step_residual",
    "pivot_identity_residual", "poisson_solve", "push_moments", "quadratic", "re_power",
    "sample_exit", "self_test", "simple_walk", "skewed_walk", "solve_system",
    "solve_system_recursive", "tau_moment_poly", "triangularize_odd", "vanishes_on_boundary",
]
