"""Wedge descriptions: opening angle, boundary slope b = tan(alpha), the
scalar field the slope lives in, and the one rule for which exit moments
exist: a moment of degree n is finite exactly when n < pi/alpha
(ConeSpec.admits)."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AngleNotRepresentable, ValidationError
from .records import Record
from .scalars import Backend, RATIONAL, bigfloat, tan_field

#: sentinel slope for alpha = pi/2 (boundary ray is the x2-axis)
VERTICAL = "vertical"

#: guard band for the float comparison of a degree against pi/alpha
RESONANCE_GUARD = 1e-9


def is_vertical(b) -> bool:
    """Whether a slope is the VERTICAL sentinel (or a string equal to it)."""
    return b is VERTICAL or (isinstance(b, str) and b == VERTICAL)


class ConeSpec(Record):
    """A wedge between the rays x2 = 0 and x2 = b*x1 (b = tan(alpha))."""

    m: int | None  # integer mode: alpha = pi/m; None for a general angle
    b: object  # scalar slope, or VERTICAL for alpha = pi/2
    backend: Backend
    p_alpha: object  # pi/alpha as Fraction (integer mode) or mpf

    @property
    def vertical(self) -> bool:
        return is_vertical(self.b)

    def admits(self, n: int) -> bool:
        """Whether a moment of degree n exists in this wedge: n < pi/alpha.
        The exit time's tail is P(tau > t) ~ t^(-pi/(2 alpha))
        (Denisov-Wachtel 2015), so E[tau^k] needs 2k < pi/alpha and the
        exit position's degree-n moments need n < pi/alpha.  Exact for a
        Fraction p_alpha; a float p_alpha must clear n by RESONANCE_GUARD."""
        p = self.p_alpha
        if isinstance(p, Fraction):
            return n < p
        return n < float(p) - RESONANCE_GUARD

    def refusal(self, n: int) -> str:
        """Why admits(n) is False, for an error message: pi/alpha exactly
        for a Fraction, and a float as its shortest round-trip decimal, or
        as n plus its offset when it exceeds n by less than
        RESONANCE_GUARD, so that a near-resonant wedge does not read as
        resonant."""
        p = self.p_alpha
        if isinstance(p, Fraction):
            return f"pi/alpha = {p} <= {n}"
        d = float(p - n)
        if d > 0:
            return f"pi/alpha = {n} + {d:.2g} is within the guard band RESONANCE_GUARD = {RESONANCE_GUARD:g} of {n}"
        return f"pi/alpha = {float(p)!r} <= {n}"

    def alpha_float(self) -> float:
        return math.pi / float(self.p_alpha)

    def b_float(self) -> float:
        if self.vertical:
            raise ValidationError("vertical cone has no finite slope")
        return float(self.b)

    def p_alpha_float(self) -> float:
        return float(self.p_alpha)


def make_cone(m: int, backend: Backend | None = None) -> ConeSpec:
    """Wedge of opening pi/m.  Default field: rationals for m in {1, 4},
    quadratic fields for m in {3, 6, 8, 12}, vertical for m = 2, and 256-bit
    floats otherwise.  An explicit exact backend that cannot represent
    tan(pi/m) raises AngleNotRepresentable."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    if m == 2:
        return ConeSpec(m=2, b=VERTICAL, backend=backend or RATIONAL, p_alpha=Fraction(2))
    backend = backend or tan_field(m)
    try:
        b = backend.tan_pi_over(m)
    except ValueError as e:
        raise AngleNotRepresentable(str(e)) from e
    return ConeSpec(m=m, b=b, backend=backend, p_alpha=Fraction(m))


def cone_for_table(m: int, backend: Backend) -> ConeSpec:
    """The pi/m wedge a builder runs a moment table over backend in: the
    default one (make_cone(m)) when the table's values mix with its slope
    as they are, as a rational table does with any exact slope, and else
    the wedge over the table's float field, which is the table's own field
    when that is a float one."""
    cone = make_cone(m)
    if backend.mixes_with(cone.backend):
        return cone
    return make_cone(m, backend.float_field())


def cone_from_slope(b, backend: Backend | None = None) -> ConeSpec:
    """General-angle wedge from a slope b = tan(alpha), alpha in (0, pi).
    alpha is the principal angle: atan(b) for b > 0, pi/2 + |atan(b)|-style
    continuation for b < 0.  b is converted into backend's field; the
    opening is pi/m only when b equals tan(pi/m) within the field's
    tolerance."""
    backend = backend or bigfloat()
    try:
        b = backend.convert(b)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"slope {b!r} is not in {backend.name}") from e
    field = backend.float_field()
    b_mp = field.convert(b)
    alpha = field.mp.atan(b_mp)
    if alpha <= 0:
        alpha += field.mp.pi
    p_alpha = field.mp.pi / alpha
    # an exact pi/m opening with m <= 64: the nearest m, confirmed in the field
    m = round(float(p_alpha)) if p_alpha < 64.5 else None
    if m is not None and not field.is_zero(b_mp - field.tan_pi_over(m)):
        m = None
    return ConeSpec(m=m, b=b, backend=backend, p_alpha=Fraction(m) if m else p_alpha)

