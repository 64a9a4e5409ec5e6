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
"""

from .alt import (
    FourierProfile,
    build_harmonic_alt,
    eliminate_monomial,
    fourier_profile,
    harmonic_correction,
    particular_solution,
    polar_mode,
    trig_series,
)
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
    kernel_dimension,
    pivot_identity_residual,
    solve_system,
    solve_system_recursive,
    triangularize_odd,
)
from .poly import Poly, boundary_ratio, im_power, laplacian, re_power
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
    sqrt_fraction,
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


__all__ = sorted([n for n in globals() if not n.startswith("_")] + list(_LAZY))
