"""The contract of the public surface: every name in conewalk.__all__,
called with hostile but well-typed arguments, returns a result or raises a
ConewalkError within its row's time budget.  It never raises another
exception and never runs on unbounded.

ARGS maps a parameter name to the values it is drawn from: sizes (degrees,
orders, moment orders) from -1 to 64 and path counts up to 1000, so that
no call needs a size cap, and in their place 2.5, +-inf, nan, None, ""
and True; the numbers 0, -1, 2^70, 2.5, +-inf and nan; None where a
parameter defaults to None and "" where it takes a string; and Fractions,
QuadElements, mpfs, Polys, moment tables, cones, walks and backends.
ROWS holds one row per export: how it is called, the arguments it draws
differently from ARGS, and its budget.  A name in __all__ without a row
fails.  The explain phase stays off: its tracing slows every call
several times over, past the budgets.

REGRESSIONS lists single calls, each once refused with a bare exception
or answered wrongly, that must raise a ConewalkError."""

import inspect
import math
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import conewalk
from conewalk import (
    RATIONAL,
    ConewalkError,
    MomentTable,
    Poly,
    QuadElement,
    SimConfig,
    WalkSpec,
    backend_from_name,
    bigfloat,
    build_matrix,
    cone_from_slope,
    diagonal_walk,
    drift_expansion,
    eliminate_monomial,
    exit_position_moments,
    format_scalar,
    im_power,
    make_cone,
    one_step_residual,
    push_moments,
    quadratic,
    self_test,
    simple_walk,
    skewed_walk,
    solve_system,
    solve_system_recursive,
    vanishes_on_boundary,
)
from conewalk.alt import polar_mode
from conewalk.scalars import sqrt_fraction
from conftest import W_B, make_moment_table

INF, NAN = math.inf, math.nan

#: seconds a call may take unless its row sets its own budget
BUDGET = 2.0

#: examples drawn for each export
EXAMPLES = 30

F256, F64 = bigfloat(256), bigfloat(64)
Q2, Q3 = quadratic(2), quadratic(3)

#: numbers of every hostile kind, as a slope, a point coordinate or a
#: coefficient may be
NUMBERS = [0, -1, 2**70, 2.5, INF, -INF, NAN, Fraction(-3, 7), Fraction(1, 10**4)]

#: scalars of every field, the numbers first
SCALARS = NUMBERS + [QuadElement(1, 1, 2), QuadElement(2**70, -1, 3), F256.convert(Fraction(1, 3)),
                     F64.convert(-2)]

#: sizes: degrees, orders and moment orders, with the values no size takes
SIZES = st.one_of(st.integers(-1, 64), st.sampled_from([2.5, INF, NAN, None, "", True]))

BACKENDS = [RATIONAL, Q2, Q3, F256, F64]

CONES = [make_cone(1), make_cone(2), make_cone(3), make_cone(4), make_cone(5), make_cone(8),
         make_cone(12), make_cone(64), make_cone(3, F64), cone_from_slope(Fraction(2, 3), RATIONAL),
         cone_from_slope(Fraction(1, 10**4), RATIONAL), cone_from_slope(-1), cone_from_slope(2**70),
         cone_from_slope(QuadElement(2**70, 1, 3), Q3)]

def _wide_walk(jump: int) -> WalkSpec:
    """The simple walk with the horizontal jumps +-jump."""
    q = Fraction(1, 4)
    return WalkSpec([(jump, 0, q), (-jump, 0, q), (0, 1, q), (0, -1, q)])


WALKS = [simple_walk(), diagonal_walk(), skewed_walk(), WalkSpec(W_B), _wide_walk(2**40), _wide_walk(2**70)]

#: the coefficient map of a valid order-4 table, which MomentTable rows vary
_MU4 = make_moment_table(4).mu

TABLES = [make_moment_table(2), make_moment_table(6), make_moment_table(8, F64),
          MomentTable(4, {**_MU4, (3, 1): QuadElement(0, 1, 3), (4, 0): 2**70}, Q3),
          push_moments(diagonal_walk(), 6), push_moments(WalkSpec(W_B), 5)]

POLYS = [Poly.zero(), Poly.const(Fraction(-1, 3)), Poly.x1(), im_power(3), im_power(64),
         Poly({(2, 0): 2**70, (0, 2): -(2**70)}), Poly({(1, 1): 2.5, (0, 0): NAN}),
         Poly({(3, 0): QuadElement(1, 1, 3), (1, 2): -1}), im_power(4).map_coeffs(F256.convert)]

ATOMS = [[], [(1, 0, Fraction(1, 2)), (-1, 0, Fraction(1, 2))], [(0, 0, 1)],
         [(1, 0, 0.5), (-1, 0, 0.5), (0, 1, NAN), (0, -1, INF)],
         [(1, 0, Fraction(1, 4)), (-1, 0, Fraction(1, 4)), (0, 1, ""), (0, -1, None)],
         [(2.5, 0, Fraction(1, 4)), (-1, 0, Fraction(1, 4)), (0, 1, Fraction(1, 4)), (0, -1, Fraction(1, 4))],
         [(1, 1, 2.5), (-1, -1, -1.5)], [(1, 1, Fraction(1, 2)), (-1, -1, Fraction(1, 2))],
         simple_walk().atoms, W_B]

_pick = st.sampled_from

#: parameter name: the values it is drawn from
ARGS = {
    **dict.fromkeys(("m", "n", "k", "j", "order", "n_odd", "binom", "truncated", "rho_sign"), SIZES),
    **dict.fromkeys(("precision_bits", "bits", "d"),
                    st.one_of(st.integers(-1, 1024), _pick([2**70, 2.5, INF, NAN, None, "", True]))),
    **dict.fromkeys(("b", "v", "p", "q", "scale", "pivot", "theta", "mean1", "mean2", "second1", "second2",
                     "t11", "t12", "t22", "rho_squared", "alpha_geometric", "alpha_formula", "estimate",
                     "std_error", "target", "z"), _pick(SCALARS)),
    **dict.fromkeys(("boundary_ok", "resonant", "kernel_positive", "passed", "squarefree"), st.booleans()),
    **dict.fromkeys(("message", "note", "detail"), _pick(["", "refused"])),
    **dict.fromkeys(("f", "h", "fp", "G", "residual"), _pick(POLYS)),
    "name": _pick(["rational", "float", "float:64", "float:0", "float:7", f"float:{2**70}", "quad:2",
                   "quad:4", "quad:x", "quad:", "quad:-3", "decimal", "", None, 0]),
    "backend": _pick(BACKENDS),
    "cone": _pick(CONES),
    "mu": _pick(TABLES),
    "w": _pick(WALKS),
    "walk": _pick(WALKS),
    "x": st.tuples(_pick(SCALARS), _pick(SCALARS)),
    "y": st.tuples(_pick(NUMBERS), _pick(NUMBERS)),
    "start": st.tuples(st.one_of(st.integers(-1, 3), _pick(NUMBERS)), st.integers(-1, 3)),
    "ray": st.tuples(_pick(SCALARS), _pick(SCALARS)),
    "terms": _pick([{}, {(0, 0): Fraction(1)}, {(1, 0): 2.5, (0, 1): NAN}, {(-1, 0): 1},
                    {(64, 0): 2**70}, {(1, 1): QuadElement(0, 1, 2), (0, 2): F256.mp.mpf("inf")}]),
    "atoms": _pick(ATOMS),
    "mat": st.builds(build_matrix, st.integers(2, 64), _pick(CONES)),
    "rhs": st.lists(_pick(SCALARS), max_size=8) | st.lists(st.just(0), min_size=3, max_size=66),
    "rows": _pick([(), ((1, 0), (0, 1))]),
    "lambdas": _pick([(), (Fraction(1, 2),)]),
    "paths": st.one_of(st.integers(-1, 1000), _pick([2.5, None])),
    "seed": st.one_of(st.integers(-1, 3), _pick([2**70, 2.5, INF, NAN, None, ""])),
    "max_steps": st.one_of(st.integers(-1, 300), _pick([2.5, None])),
    "checks": _pick([(), ("tau-mean",), ("tau-second", "exit-position"), ("harmonicity",), ("tail",),
                     ("unknown",)]),
    "float_bits": _pick([-1, 0, 7, 8, 64, 2.5, None]),
    "tau_mean_bracket": _pick([(0.0, 1.0), (NAN, INF)]),
}


def row(call, budget=BUDGET, **own):
    """call's row: the strategies of its parameters (own ones first, else
    ARGS, with None added where the parameter defaults to None) and its
    time budget.  A Record's parameters are its fields."""
    fields = getattr(call, "_fields", None)
    if fields is not None:
        params = {f: call._defaults.get(f, inspect.Parameter.empty) for f in fields}
    else:
        params = {p.name: p.default for p in inspect.signature(call).parameters.values()}
    args = {}
    for name, default in params.items():
        args[name] = own[name] if name in own else ARGS[name]
        if default is None:
            args[name] = st.none() | args[name]
    return call, st.fixed_dictionaries(args), budget


def _constructor(cls):
    """An exception class called with one message."""
    return lambda message: cls(message)


ERRORS = ["AngleNotRepresentable", "AngleOutOfRange", "BoundaryPointError", "ConewalkError",
          "DegenerateCorrelation", "DegreeTooHigh", "InsufficientMoments", "InsufficientSurvivors",
          "InternalError", "MomentCheckInvalid", "MomentNotFinite", "ResonantDegree", "SingularAngle",
          "StartNotInterior", "ValidationError"]

#: every export: (call, its arguments' strategy, its budget in seconds)
ROWS = {
    **{name: row(_constructor(getattr(conewalk, name))) for name in ERRORS},
    "RATIONAL": row(lambda v: RATIONAL.convert(v)),
    "MomentTable": row(MomentTable, mu=_pick([
        {}, _MU4, {**_MU4, (2, 0): Fraction(2)}, {**_MU4, (3, 0): NAN}, {**_MU4, (3, 0): INF},
        {**_MU4, (1, 3): None}, {**_MU4, (4, 0): ""}, {**_MU4, (0, 4): QuadElement(0, 1, 2)},
        {k: F256.convert(v) for k, v in _MU4.items()}])),
    "sample_exit": row(conewalk.sample_exit, budget=5.0, cfg=st.builds(
        SimConfig, _pick(WALKS[:-1]), st.tuples(st.integers(1, 3), st.integers(1, 3)), st.integers(1, 1000),
        _pick([0, 1, 2**70]), st.integers(1, 300), ARGS["checks"].filter(lambda c: "unknown" not in c))),
    "self_test": row(conewalk.self_test, budget=10.0),
}
for _name in ("AngleClassification", "Backend", "BoundaryMatrix", "CheckResult", "ConeSpec",
              "ExitPositionMoments", "FloatBackend", "HarmonicResult", "MomentPolyResult",
              "OddTriangularization", "Poly", "PropertyResult", "QuadElement", "QuadraticBackend",
              "RationalBackend", "SimConfig", "SimReport", "TransformInfo", "WalkSpec",
              "backend_from_name", "bigfloat", "build_harmonic_alt", "build_matrix", "build_transform",
              "builtin_walks", "check_low_degree_uniqueness", "check_no_overshoot", "cone_for_walk",
              "cone_from_slope", "construct_harmonic", "converse_angle_test", "diagonal_walk",
              "drift_expansion", "eliminate_monomial", "exit_position_moments", "first_moment_poly",
              "format_scalar", "im_power", "laplacian", "make_cone", "one_step_residual",
              "pivot_identity_residual", "poisson_solve", "push_moments", "quadratic", "re_power",
              "simple_walk", "skewed_walk", "solve_system", "solve_system_recursive",
              "tau_moment_poly", "triangularize_odd", "vanishes_on_boundary"):
    ROWS[_name] = row(getattr(conewalk, _name))


class OverBudget(BaseException):
    """Raised by the alarm when a call runs past its budget.  It is no
    Exception, so no handler in the package swallows it."""


def within(budget: float, call, *args, **kwargs):
    """call(*args, **kwargs), stopped with OverBudget after budget seconds."""
    def alarm(signum, frame):
        raise OverBudget(f"still running after {budget} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return call(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_surface_is_72_names_and_no_module():
    assert len(conewalk.__all__) == len(set(conewalk.__all__)) == 72
    assert not [n for n in conewalk.__all__ if inspect.ismodule(getattr(conewalk, n))]
    star = {}
    exec("from conewalk import *", star)
    assert sorted(n for n in star if n != "__builtins__") == sorted(conewalk.__all__)
    for helper in ("trig_series", "polar_mode", "fourier_profile", "FourierProfile", "particular_solution",
                   "harmonic_correction", "sqrt_fraction", "boundary_ratio", "kernel_dimension"):
        assert not hasattr(conewalk, helper), helper
    assert set(ROWS) == set(conewalk.__all__), set(ROWS) ^ set(conewalk.__all__)


@pytest.mark.parametrize("name", conewalk.__all__)
def test_every_export_returns_or_raises_a_conewalk_error(name):
    assert name in ROWS, f"{name} is in __all__ but has no row in ROWS"
    call, args, budget = ROWS[name]

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate, Phase.shrink], suppress_health_check=list(HealthCheck))
    @given(args)
    def returns_or_refuses(kwargs):
        try:
            within(budget, call, **kwargs)
        except ConewalkError:
            pass

    returns_or_refuses()


#: calls once refused with a bare exception or answered wrongly
REGRESSIONS = {
    "cone_from_slope(inf)": lambda: cone_from_slope(INF),
    "cone_from_slope(-inf)": lambda: cone_from_slope(-INF),
    "cone_from_slope(nan)": lambda: cone_from_slope(NAN),
    "cone_from_slope(inf, RATIONAL)": lambda: cone_from_slope(INF, RATIONAL),
    "cone_from_slope(mpf inf)": lambda: cone_from_slope(F256.mp.mpf("inf"), F256),
    "polar_mode(2, 0, 'tan')": lambda: polar_mode(2, 0, "tan"),
    "backend_from_name(0)": lambda: backend_from_name(0),
    "backend_from_name('quad:x')": lambda: backend_from_name("quad:x"),
    "backend_from_name('quad:4')": lambda: backend_from_name("quad:4"),
    "backend_from_name('float:0')": lambda: backend_from_name("float:0"),
    "quadratic(inf)": lambda: quadratic(INF),
    "quadratic(4)": lambda: quadratic(4),
    "quadratic(2.0)": lambda: quadratic(2.0),
    "bigfloat(0)": lambda: bigfloat(0),
    "bigfloat(256.0)": lambda: bigfloat(256.0),
    "format_scalar(inf)": lambda: format_scalar(INF),
    "format_scalar(nan)": lambda: format_scalar(NAN),
    "QuadElement(inf, 0, 2)": lambda: QuadElement(INF, 0, 2),
    "a 2^70 jump in SimConfig": lambda: SimConfig(_wide_walk(2**70), (1, 1), 10, 0),
    "a 2^70 start in SimConfig": lambda: SimConfig(simple_walk(), (2**70, 1), 10, 0),
    "sqrt_fraction(inf)": lambda: sqrt_fraction(INF),
    "QuadElement(1, 1, 2) * mpf": lambda: QuadElement(1, 1, 2) * F256.convert(1),
    "mpf + QuadElement(1, 1, 2)": lambda: F256.convert(1) + QuadElement(1, 1, 2),
    "QuadElement(1, 1, 2) + 2.5": lambda: QuadElement(1, 1, 2) + 2.5,
    "sqrt(3) * sqrt(2)": lambda: QuadElement(0, 1, 3) * QuadElement(0, 1, 2),
    "RATIONAL.convert(1 + sqrt(2))": lambda: RATIONAL.convert(QuadElement(1, 1, 2)),
    "float:256 convert('')": lambda: F256.convert(""),
    "a walk with probability nan": lambda: WalkSpec([(1, 0, 0.5), (-1, 0, NAN), (0, 1, 0.25), (0, -1, 0.25)]),
    "drift of a Q(sqrt 3) poly under a float table": lambda: drift_expansion(
        Poly({(3, 0): QuadElement(1, 1, 3)}), make_moment_table(4, F64)),
    "one_step_residual at (0, 2.5)": lambda: one_step_residual(Poly.zero(), diagonal_walk(), (0, 2.5)),
    "exit_position_moments at a Q(sqrt 2) point of a Q(sqrt 3) cone": lambda: exit_position_moments(
        make_cone(3), (-1, QuadElement(1, 1, 2))),
    "eliminate_monomial(0, 0, None, cone)": lambda: eliminate_monomial(0, 0, None, make_cone(1)),
    "self_test(seed=2.5)": lambda: self_test(seed=2.5),
    "a nonzero boundary entry of a Fraction rhs on a float cone": lambda: solve_system(
        build_matrix(4, make_cone(5)), [0, 0, 0, 0, Fraction(-3, 7)]),
}


@pytest.mark.parametrize("name", REGRESSIONS)
def test_refused_with_a_conewalk_error(name):
    with pytest.raises(ConewalkError):
        REGRESSIONS[name]()


def test_exact_values_are_taken_into_a_float_field():
    """An exact polynomial, scale or right-hand side on a float cone is
    converted into its field, as the cone's own values are."""
    cone = make_cone(5)
    assert vanishes_on_boundary(Poly.const(Fraction(-1, 3)), cone, 0) is False
    assert vanishes_on_boundary(im_power(5), cone, Fraction(1, 2))
    mat = build_matrix(4, cone)
    rhs = [Fraction(1, 3), 0, Fraction(-2, 7), 0, 0]
    assert solve_system(mat, rhs) == solve_system(mat, [F256.convert(v) for v in rhs])
    assert solve_system_recursive(mat, rhs) == solve_system_recursive(mat, [F256.convert(v) for v in rhs])
    assert sqrt_fraction(2.5) == (Fraction(1, 2), 10)


def test_slope_zero_still_opens_pi():
    assert cone_from_slope(0).m == 1 and cone_from_slope(Fraction(0), RATIONAL).m == 1


def test_exact_angle_test_runs_in_integers():
    """pi/alpha is about 31415.93 for the slope 1/10^4, so admits(31416)
    reaches the sign of Im(z^31416), which exact fields compute in integers
    rather than through Fraction products that each take a gcd."""
    cone = cone_from_slope(Fraction(1, 10**4), RATIONAL)
    started = time.perf_counter()
    assert cone.admits(31415) and not cone.admits(31416)
    assert time.perf_counter() - started < 0.5
