"""Wedge descriptions: the opening alpha; the second boundary ray, as a
point ray = (c, s) of its line in the wedge's scalar field, (1, tan alpha)
or (0, 1) at alpha = pi/2 (the first ray is the positive x1-axis); and the
one rule for which exit moments exist: a moment of degree n is finite
exactly when n < pi/alpha (ConeSpec.admits).  A homogeneous polynomial
vanishes on the ray exactly when it vanishes at (c, s), whichever way
(c, s) points along the line."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AngleNotRepresentable, ValidationError
from .records import Record
from .scalars import Backend, RATIONAL, bigfloat, tan_field

#: guard band for the float comparison of a degree against pi/alpha
RESONANCE_GUARD = 1e-9


class ConeSpec(Record):
    """A wedge between the positive x1-axis and the ray on the line through
    ray = (c, s)."""

    m: int | None  # integer mode: alpha = pi/m; None for a general angle
    ray: tuple  # (c, s): the second boundary ray's line, in backend's field
    backend: Backend
    p_alpha: object  # pi/alpha: Fraction(m) in integer mode, else an mpf

    @property
    def b(self):
        """The second ray's slope s/c = tan(alpha); ValidationError at
        opening pi/2, whose ray x1 = 0 has no finite slope."""
        c, s = self.ray
        if self.backend.is_zero(c):
            raise ValidationError("the second boundary ray x1 = 0 has no finite slope")
        return s / c

    def admits(self, n: int) -> bool:
        """Whether a moment of degree n exists in this wedge: n < pi/alpha.
        The exit time's tail is P(tau > t) ~ t^(-pi/(2 alpha))
        (Denisov-Wachtel 2015), so E[tau^k] needs 2k < pi/alpha and the
        exit position's degree-n moments need n < pi/alpha.  Exact for an
        opening pi/m; a general pi/alpha must clear n by RESONANCE_GUARD."""
        if self.m is not None:
            return n < self.m
        return n < float(self.p_alpha) - RESONANCE_GUARD

    def refusal(self, n: int) -> str:
        """Why admits(n) is False, for an error message: pi/alpha exactly
        for an opening pi/m, and a general one as its shortest round-trip
        decimal, or as n plus its offset when it exceeds n by less than
        RESONANCE_GUARD, so that a near-resonant wedge does not read as
        resonant."""
        p = self.p_alpha
        if self.m is not None:
            return f"pi/alpha = {self.m} <= {n}"
        d = float(p - n)
        if d > 0:
            return f"pi/alpha = {n} + {d:.2g} is within the guard band RESONANCE_GUARD = {RESONANCE_GUARD:g} of {n}"
        return f"pi/alpha = {float(p)!r} <= {n}"

    def alpha_float(self) -> float:
        return math.pi / float(self.p_alpha)

    def b_float(self) -> float:
        return float(self.b)

    def p_alpha_float(self) -> float:
        return float(self.p_alpha)


def make_cone(m: int, backend: Backend | None = None) -> ConeSpec:
    """Wedge of opening pi/m, second ray (1, tan(pi/m)), or (0, 1) for
    m = 2.  Default field: rationals for m in {1, 2, 4}, quadratic fields
    for m in {3, 6, 8, 12}, and 256-bit floats otherwise.  An explicit
    exact backend that cannot represent tan(pi/m) raises
    AngleNotRepresentable."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    if m == 2:
        backend = backend or RATIONAL
        ray = (backend.zero(), backend.one())
    else:
        backend = backend or tan_field(m)
        try:
            ray = (backend.one(), backend.tan_pi_over(m))
        except ValueError as e:
            raise AngleNotRepresentable(str(e)) from e
    return ConeSpec(m=m, ray=ray, backend=backend, p_alpha=Fraction(m))


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
    """General-angle wedge from a slope b = tan(alpha), alpha in (0, pi):
    second ray (1, b).
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
    return ConeSpec(m=m, ray=(backend.one(), b), backend=backend, p_alpha=Fraction(m) if m else p_alpha)

