"""Exit-time and exit-position moments: the Poisson-type solver
(drift of F prescribed inside the wedge, F zero on the boundary) and the
recursion producing the degree-2k polynomials equal to the k-th moments of
the exit time, plus the closed-form exit-position moments.

Which of them exist is one rule, ConeSpec.admits: degree n is allowed iff
n < pi/alpha.  Every builder here asks it before doing any work.
"""

from __future__ import annotations

import math

from .cones import ConeSpec
from .drift import drift_expansion
from .errors import (
    AngleOutOfRange,
    DegreeTooHigh,
    InsufficientMoments,
    InternalError,
    MomentNotFinite,
    SingularAngle,
    ValidationError,
    integer,
)
from .linsys import build_matrix, solve_system
from .poly import Poly
from .records import Record
from .scalars import exact_bits
from .walks import MomentTable


def _debug_log(name: str):
    """The logger called name when logging is loaded and debug output is
    on, else None.  The check loads nothing, so neither exact work nor the
    simulator imports logging."""
    # sys and time are imported where the debug events use them, so the
    # events add nothing to importing this module
    import sys

    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(logging.DEBUG) else None


def _log_pass(log, l: int, part: Poly, solved, exact: bool, seconds: float):
    """One debug line per degree pass: the degree, the nonzero rhs terms,
    solved or skipped, the time, and on exact fields the largest
    coefficient of the solved part in bits."""
    what = "skipped" if solved is None else "solved"
    bits = f", coefficients up to {max(map(exact_bits, solved))} bits" if solved and exact else ""
    log.debug("degree %d pass: %d nonzero rhs terms, %s in %.3g s%s", l, len(part.terms), what, seconds, bits)


def _solve_top_down(h: Poly, f: Poly, cone: ConeSpec, mu: MomentTable, n: int):
    """Add to h the homogeneous parts of degrees n..2 that make its one-step
    drift equal f, top-down: the degree-l pass solves one boundary system
    for the degree-(l-2) part of f - drift(h) still left, which disturbs
    only lower degrees.  A part that vanishes relative to the running scale
    is skipped.  Returns h, its drift and that scale."""
    import time

    log = _debug_log(__name__)
    backend = cone.backend
    mu = mu.to(backend)
    f = f.map_coeffs(backend.lift)
    scale = backend.scale(h, f)
    for l in range(n, 1, -1):
        started = time.perf_counter()
        g = drift_expansion(h, mu) if not h.is_zero() else Poly.zero()
        left = f - g
        scale = max(scale, backend.scale(left))
        part = left.homogeneous_part(l - 2)
        if backend.vanishes(part, scale):
            if log:
                _log_pass(log, l, part, None, backend.exact, time.perf_counter() - started)
            continue
        rhs = list(part.power_basis_coeffs(l - 2)) + [backend.zero()] * 2
        try:
            a = solve_system(build_matrix(l, cone), rhs)
        except SingularAngle as e:
            raise InternalError(f"unexpected resonance at degree {l} < pi/alpha") from e
        h = h + Poly.from_power_basis(l, a)
        scale = max(scale, backend.scale(h))
        if log:
            _log_pass(log, l, part, a, backend.exact, time.perf_counter() - started)
    return h, drift_expansion(h, mu), scale


def poisson_solve(f: Poly, cone: ConeSpec, mu: MomentTable, n: int) -> Poly:
    """The unique polynomial F of degree n with one-step drift equal to f
    inside the wedge and F identically zero on both boundary rays.

    Exists and is unique when n < pi/alpha (no resonant degree at or below
    n); built top-down, one homogeneous boundary system per degree.
    """
    n = integer(n, "target degree", 2)
    if f.degree() > n - 2:
        raise ValidationError(f"rhs degree {f.degree()} exceeds {n - 2}")
    if not cone.admits(n):
        raise DegreeTooHigh(f"degree {n} too high: {cone.refusal(n)}")
    if mu.order < n:
        raise InsufficientMoments(f"need moments of order >= {n}, have {mu.order}")
    return _solve_top_down(Poly.zero(), f, cone, mu, n)[0]


class MomentPolyResult(Record):
    """The degree-2k polynomial giving the k-th exit-time moment, with the
    recursion residual retained as evidence."""

    k: int
    cone: ConeSpec
    G: Poly
    residual: Poly  # drift(G) minus the recursion's rhs; must be zero


def first_moment_poly(cone: ConeSpec) -> Poly:
    """x2*(s*x1 - c*x2), (c, s) = cone.ray: the expected exit time as a
    function of the start."""
    if not cone.admits(2):
        raise AngleOutOfRange(f"expected exit time infinite (needs 2 < pi/alpha): {cone.refusal(2)}")
    c, s = cone.ray
    return Poly({(1, 1): s, (0, 2): -c})


def tau_moment_poly(k: int, cone: ConeSpec, mu: MomentTable) -> MomentPolyResult:
    """The polynomial equal to the k-th moment of the exit time, for
    k < pi/(2*alpha); raises MomentNotFinite at or beyond that threshold
    (the moment is genuinely infinite there, this is not a numeric failure).

    Recursion: G_1 = x2(b x1 - x2); for j >= 2, G_j solves
    drift(G_j) = -1 - sum_{l<j} C(j,l) (G_l + drift(G_l)) at degree 2j.
    G_1..G_k are built in one pass, each drift computed once, and every
    G_j's recursion residual is checked.
    """
    k = integer(k, "moment order", 1)
    if not cone.admits(2 * k):
        raise MomentNotFinite(f"moment {k} infinite (needs 2k < pi/alpha): {cone.refusal(2 * k)}")
    if mu.order < 2 * k:
        raise InsufficientMoments(f"need moments of order >= {2 * k}, have {mu.order}")
    backend = cone.backend
    mu = mu.to(backend)
    parts = []  # G_l + drift(G_l) for l < j
    for j in range(1, k + 1):
        rhs = Poly.const(-backend.one())
        for l, part in enumerate(parts, 1):
            rhs = rhs - math.comb(j, l) * part
        if j == 1:
            G = first_moment_poly(cone)
            dG = drift_expansion(G, mu)
        else:
            G, dG, _ = _solve_top_down(Poly.zero(), rhs, cone, mu, 2 * j)
        residual = dG - rhs
        if not backend.vanishes(residual, backend.scale(G, rhs)):
            raise InternalError(f"moment recursion residual nonzero: {residual!r}")
        parts.append(G + dG)
    return MomentPolyResult(k=k, cone=cone, G=G, residual=residual)


class ExitPositionMoments(Record):
    """Closed-form moments of the exit position from a given start."""

    mean1: object
    mean2: object
    second1: object
    second2: object


def exit_position_moments(cone: ConeSpec, x: tuple) -> ExitPositionMoments:
    """First and second moments of the walk's position at the exit time,
    started from a point of the closed wedge.

    The coordinate means equal the start coordinates; each second moment is
    the squared coordinate plus the expected exit time, so all four need
    2 < pi/alpha, as first_moment_poly does.  Boundary starts use the
    exit-at-time-zero convention, where everything reduces to the start
    itself.
    """
    G1 = first_moment_poly(cone)
    backend = cone.backend
    x1, x2 = (backend.lift(v) for v in x)
    g1 = G1.evaluate(x1, x2)
    # b > 0 here, so the point is inside the closed wedge iff x2 >= 0 and
    # x2 <= b*x1, i.e. x2 >= 0 and g1 = x2*(b*x1 - x2) >= 0 (to tolerance
    # on float fields)
    if not all(v >= 0 or backend.is_zero(v) for v in (x2, g1)):
        raise ValidationError("start must lie in the closed wedge")
    return ExitPositionMoments(
        mean1=x1, mean2=x2, second1=x1 * x1 + g1, second2=x2 * x2 + g1
    )

