"""Construction of the discrete harmonic polynomial for a wedge of opening
pi/m: the classical degree-m wedge polynomial plus a lower-degree correction
whose coefficients are linear in the walk's mixed moments.

The builder works top-down.  The candidate starts as the degree-m classical
polynomial (whose one-step drift has degree <= m-3); each pass solves one
boundary system to add the homogeneous correction that cancels the current
top of the drift, which only disturbs strictly lower degrees.  After the
degree-2 pass the drift is identically zero.
"""

from __future__ import annotations

from .cones import ConeSpec, _im_sign, cone_for_table
from .drift import drift_expansion
from .errors import InsufficientMoments, InternalError, ValidationError
from .exits import _solve_top_down
from .poly import Poly, im_power
from .records import Record
from .walks import MomentTable


class HarmonicResult(Record):
    """A built harmonic polynomial and the evidence that it is one."""

    m: int
    cone: ConeSpec
    h: Poly
    residual: Poly  # one-step drift of h; zero (exactly or to tolerance)
    boundary_ok: bool

    @property
    def correction(self) -> Poly:
        """h minus the classical top part Im(x1 + i x2)^m; degree <= m-1.
        Computed on each access rather than stored, as it shares most of
        its terms with h."""
        return self.h - im_power(self.m).map_coeffs(self.cone.backend.lift)


def vanishes_on_boundary(h: Poly, cone: ConeSpec, scale: float = 1.0) -> bool:
    """True when h is identically zero on both rays of the wedge.  Each
    homogeneous part is checked separately (parts of different degree cannot
    cancel along a ray), at the second ray's direction cone.ray."""
    backend = cone.backend
    for (i, j), c in h.terms.items():
        if j == 0 and not backend.is_zero(c, scale):
            return False
    for deg in {i + j for i, j in h.terms}:
        v = h.homogeneous_part(deg).evaluate(*cone.ray)
        if not backend.is_zero(v, scale):
            return False
    return True


def construct_harmonic(m: int, mu: MomentTable) -> HarmonicResult:
    """Build h = (classical degree-m wedge polynomial) + correction with
    identically zero one-step drift and boundary values.

    Moments of order >= m are required.  The interior boundary systems at
    degrees 2..m-1 are provably nonsingular for this slope; if one ever
    reports singular, that is an internal error, not a user error.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if mu.order < m:
        raise InsufficientMoments(f"need moments of order >= {m}, have {mu.order}")
    cone = cone_for_table(m, mu.backend)
    backend = cone.backend
    u = im_power(m).map_coeffs(backend.lift)
    h, residual, scale = _solve_top_down(u, Poly.zero(), cone, mu, m - 1)
    if not backend.vanishes(residual, scale):
        raise InternalError(f"nonzero drift after construction: {residual!r}")
    boundary_ok = vanishes_on_boundary(h, cone, scale)
    return HarmonicResult(
        m=m,
        cone=cone,
        h=h,
        residual=residual,
        boundary_ok=boundary_ok,
    )


def check_low_degree_uniqueness(m: int, mu: MomentTable, f: Poly) -> bool:
    """Decide whether a polynomial of degree < m that vanishes on both rays
    of the pi/m wedge and has zero one-step drift is the zero polynomial
    (it always is; the boundary systems below degree m are nonsingular).

    Raises ValidationError when f violates the preconditions, so a caller
    cannot use this to 'bless' a non-harmonic polynomial."""
    if f.degree() >= m:
        raise ValidationError(f"degree {f.degree()} not below {m}")
    cone = cone_for_table(m, mu.backend)
    backend = cone.backend
    scale = backend.scale(f)
    if not vanishes_on_boundary(f, cone, scale):
        raise ValidationError("f does not vanish on both boundary rays")
    res = drift_expansion(f, mu)
    if not backend.vanishes(res, scale):
        raise ValidationError("f is not one-step harmonic")
    return backend.vanishes(f, scale)


class AngleClassification(Record):
    """Outcome of the degree-n resonance test for a wedge."""

    n: int
    resonant: bool
    q: int | None  # the opening is q*pi/n when resonant
    kernel_positive: bool | None  # kernel spans a positive function iff q = 1

    def label(self) -> str:
        return f"resonant q={self.q}" if self.resonant else "nonresonant"


def converse_angle_test(n: int, cone: ConeSpec) -> AngleClassification:
    """Classify a degree/wedge pair: a nonzero degree-n homogeneous
    polynomial vanishing on both rays exists iff the opening is q*pi/n for
    some integer q, that is iff Im((c + i s)^n) = 0 at the second ray
    (c, s), tested in the cone's field relative to max(1, |c|, |s|)^n
    (the rule of conewalk.cones).
    Then the solution space is spanned by Im(x1 + i x2)^n, positive
    throughout the open wedge exactly when q = 1.
    """
    if n < 2:
        raise ValidationError("degree must be >= 2")
    if _im_sign(cone.ray, cone.backend, n) != 0:
        return AngleClassification(n=n, resonant=False, q=None, kernel_positive=None)
    q = round(n / cone.p_alpha)
    return AngleClassification(n=n, resonant=True, q=q, kernel_positive=(q == 1))
