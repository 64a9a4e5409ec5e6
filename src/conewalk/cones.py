"""Wedge descriptions: the opening alpha in (0, pi]; the second boundary
ray, as a point ray = (c, s) of its line in the wedge's scalar field,
(1, tan alpha) or (0, 1) at alpha = pi/2 (the first ray is the positive
x1-axis); and the one rule that answers every question about the angle.

Point the ray into the upper half plane, s >= 0, and let z = c + i s.
Then n*alpha < pi exactly when Im(z^k) > 0 for k = 1..n, and n*alpha is
a multiple of pi exactly when Im(z^n) = 0 (_im_sign).  The test is exact
on Q and Q(sqrt(d)); on a float field it is the field's zero test,
relative to max(1, |c|, |s|)^n.  It decides which exit moments exist (a
moment of degree n is finite exactly when n < pi/alpha, ConeSpec.admits),
whether a slope opens pi/m (cone_from_slope) and whether a degree is
resonant (conewalk.harmonic.converse_angle_test).  A homogeneous
polynomial vanishes on the ray exactly when it vanishes at (c, s),
whichever way (c, s) points along the line."""

from __future__ import annotations

from .errors import AngleNotRepresentable, ValidationError, integer
from .records import Record
from .scalars import Backend, RATIONAL, bigfloat, exact_im_sign, tan_field


def _upper(ray) -> tuple:
    """ray pointed into the closed upper half plane: (c, s) with s >= 0.
    A ray with s = 0 opens pi whichever way it points."""
    c, s = ray
    return (-c, -s) if s < 0 else (c, s)


def _im_sign(ray, backend: Backend, n: int) -> int:
    """The sign of Im(z^n) for z = c + i s, (c, s) = _upper(ray): on exact
    fields computed in integers (scalars.exact_im_sign); on float fields 0
    when it is zero in backend's field relative to max(1, |c|, |s|)^n, with
    z^n from binary powering."""
    c, s = _upper(ray)
    sign = exact_im_sign(c, s, n)
    if sign is not None:
        return sign
    re, im = backend.one(), backend.zero()
    a, b, k = c, s, n
    while k:
        if k & 1:
            re, im = re * a - im * b, re * b + im * a
        k >>= 1
        if k:
            a, b = a * a - b * b, 2 * a * b
    if backend.is_zero(im, backend.convert(backend.scale([c, s])) ** n):
        return 0
    return 1 if im > 0 else -1


def _pi_over_alpha(ray, backend: Backend):
    """pi/alpha in backend's float field; the opening of a ray with s = 0
    is pi."""
    field = backend.float_field()
    mp = field.mp
    c, s = (field.convert(v) for v in _upper(ray))
    return mp.pi / mp.atan2(s, c) if s else mp.mpf(1)


class ConeSpec(Record):
    """A wedge between the positive x1-axis and the ray on the line through
    ray = (c, s)."""

    m: int | None  # integer mode: alpha = pi/m; None for a general angle
    ray: tuple  # (c, s): the second boundary ray's line, in backend's field
    backend: Backend

    @property
    def b(self):
        """The second ray's slope s/c = tan(alpha); ValidationError at
        opening pi/2, whose ray x1 = 0 has no finite slope."""
        c, s = self.ray
        if self.backend.is_zero(c):
            raise ValidationError("the second boundary ray x1 = 0 has no finite slope")
        return s / c

    @property
    def p_alpha(self) -> float:
        """pi/alpha as a float, for messages and the tail exponent: m for
        an opening pi/m, else computed in the cone's float field (inf
        beyond the float range).  No decision reads it."""
        return float(self.m if self.m is not None else _pi_over_alpha(self.ray, self.backend))

    def admits(self, n: int) -> bool:
        """Whether a moment of degree n exists in this wedge: n < pi/alpha.
        The exit time's tail is P(tau > t) ~ t^(-pi/(2 alpha))
        (Denisov-Wachtel 2015), so E[tau^k] needs 2k < pi/alpha and the
        exit position's degree-n moments need n < pi/alpha.  For an
        opening pi/m it is n < m.  Otherwise pi/alpha is computed in the
        float field, off by at most err = |pi/alpha| * 2^(4 - precision).
        It picks the side when it is more than max(1/2, err) from n, and
        the sign of Im(z^n) decides nearer than that: then (n-1)*alpha <
        pi, so n*alpha < pi exactly when Im(z^n) > 0.  That needs err <
        1/2, which fails only when pi/alpha exceeds about 2^(precision-5);
        a degree within err of such a pi/alpha raises ValidationError."""
        n = integer(n, "degree")
        if self.m is not None:
            return n < self.m
        field = self.backend.float_field()
        ratio = _pi_over_alpha(self.ray, self.backend)
        err = abs(ratio) * field.mp.mpf(2) ** (4 - field.precision)
        if abs(n - ratio) > max(0.5, err):
            return n < ratio
        if err >= 0.5:
            raise ValidationError(f"degree {n} lies within {float(err):.3g} of pi/alpha in {field.name}")
        return _im_sign(self.ray, self.backend, n) > 0

    def refusal(self, n: int) -> str:
        """Why admits(n) is False, for an error message: pi/alpha exactly
        for an opening pi/m, else as its shortest round-trip decimal."""
        return f"pi/alpha = {self.m if self.m is not None else repr(self.p_alpha)} <= {n}"


def make_cone(m: int, backend: Backend | None = None) -> ConeSpec:
    """Wedge of opening pi/m, second ray (1, tan(pi/m)), or (0, 1) for
    m = 2.  Default field: rationals for m in {1, 2, 4}, quadratic fields
    for m in {3, 6, 8, 12}, and 256-bit floats otherwise.  An explicit
    exact backend that cannot represent tan(pi/m) raises
    AngleNotRepresentable."""
    m = integer(m, "m", 1)
    if m == 2:
        backend = backend or RATIONAL
        ray = (backend.zero(), backend.one())
    else:
        backend = backend or tan_field(m)
        try:
            ray = (backend.one(), backend.tan_pi_over(m))
        except ValueError as e:
            raise AngleNotRepresentable(str(e)) from e
    return ConeSpec(m=m, ray=ray, backend=backend)


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
    """General-angle wedge from a slope b = tan(alpha), alpha in (0, pi]:
    second ray (1, b), so a negative slope opens beyond pi/2 and the slope
    0 opens pi.  b is converted into backend's field.  The opening is pi/m
    for m the nearest integer to pi/alpha when Im(z^m) is zero in the
    field and, unless m = 1, Im(z^(m-1)) is positive."""
    backend = backend or bigfloat()
    try:
        b = backend.convert(b)
    except ValueError as e:
        raise ValidationError(f"slope {b!r} is not in {backend.name}") from e
    ray = (backend.one(), b)
    m = int(backend.float_field().mp.nint(_pi_over_alpha(ray, backend)))
    if backend.exact:  # an exact field holds tan(pi/m) for a few m only: the others need no power
        try:
            backend.tan_pi_over(m)
        except ValueError:
            m = None
    if m is not None and not (_im_sign(ray, backend, m) == 0 and (m == 1 or _im_sign(ray, backend, m - 1) > 0)):
        m = None
    return ConeSpec(m=m, ray=ray, backend=backend)
