"""Scalar field backends: exact rationals, quadratic extensions Q(sqrt(d)),
and arbitrary-precision binary floats.

Polynomial and matrix code in this package is generic over the scalar type:
it only needs field arithmetic through the usual Python operators plus a
backend object for conversions, zero tests and string round-trips.  Exact
values are ``fractions.Fraction`` or :class:`QuadElement`; floats are
``mpmath.mpf`` carried at the backend's working precision.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a positive integer n as s^2 * d with d square-free; returns (s, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return s, d


def sqrt_fraction(r: Fraction) -> tuple[Fraction, int]:
    """Decompose a nonnegative rational as r = s^2 * d with d a square-free
    positive integer; sqrt(r) = s * sqrt(d).  Returns (s, d)."""
    if r < 0:
        raise ValueError("nonnegative rational required")
    if r == 0:
        return Fraction(0), 1
    sn, dn = squarefree_decompose(r.numerator)
    sd, dd = squarefree_decompose(r.denominator)
    # sqrt(dn/dd) = sqrt(dn*dd)/dd
    s = Fraction(sn, sd * dd)
    _, d = squarefree_decompose(dn * dd)
    s *= Fraction(int(math.isqrt(dn * dd // d)), 1)
    return s, d


class QuadElement:
    """Element p + q*sqrt(d) of the real quadratic field Q(sqrt(d)),
    d a square-free integer > 1.  Immutable; mixes freely with int/Fraction."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d: int):
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.d = d

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.d == self.d or other.q == 0:
                return Fraction(other.p), Fraction(other.q if other.d == self.d else 0)
            if self.q == 0:
                return None  # handled by caller through reflected op
            raise ValueError(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadElement(self.p + co[0], self.q + co[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadElement(self.p - co[0], self.q - co[1], self.d)

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadElement(co[0] - self.p, co[1] - self.q, self.d)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p, q = co
        return QuadElement(self.p * p + self.q * q * self.d, self.p * q + self.q * p, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElement":
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return QuadElement(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return self * QuadElement(co[0], co[1], self.d).inverse()

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadElement(co[0], co[1], self.d) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadElement(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return QuadElement(-self.p, -self.q, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadElement):
            if other.d == self.d:
                return self.p == other.p and self.q == other.q
            return self.q == 0 and other.q == 0 and self.p == other.p
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def sign(self) -> int:
        if self.q == 0:
            return 0 if self.p == 0 else (1 if self.p > 0 else -1)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        # mixed signs: compare p^2 against q^2 d
        lhs, rhs = self.p * self.p, self.q * self.q * self.d
        if self.q > 0:  # p < 0
            return 1 if rhs > lhs else (-1 if rhs < lhs else 0)
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)

    def __lt__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return (self - QuadElement(co[0], co[1], self.d)).sign() < 0

    def __gt__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return (self - QuadElement(co[0], co[1], self.d)).sign() > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadElement({self.p!r}, {self.q!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def scalar_to_float(v) -> float:
    if isinstance(v, QuadElement):
        return float(v)
    if isinstance(v, mpmath.mpf):
        return float(v)
    return float(v)


_QUAD_RE = re.compile(
    r"^\s*(?P<p>[+-]?\d+(?:/\d+)?)\s*(?P<sq>[+-])\s*(?P<q>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<d>\d+)\)\s*$"
)


def format_scalar(v) -> str:
    """Canonical string form: 'p/q' rational, 'p/q+r/s*sqrt(d)' quadratic,
    decimal string for floats."""
    if isinstance(v, QuadElement):
        qa = abs(v.q)
        sgn = "-" if v.q < 0 else "+"
        return f"{v.p}{sgn}{qa}*sqrt({v.d})"
    if isinstance(v, mpmath.mpf):
        digits = max(17, int(mpmath.mp.prec * 0.30103) + 2)
        return mpmath.nstr(v, digits, strip_zeros=True)
    return str(Fraction(v))


class Backend:
    """Conversion, zero testing and string round-trips for one scalar field."""

    name = "abstract"
    exact = True

    def workprec(self):
        """Context manager for arithmetic in this field (no-op when exact)."""
        import contextlib

        return contextlib.nullcontext()

    def convert(self, v):
        raise NotImplementedError

    def zero(self):
        return self.convert(0)

    def one(self):
        return self.convert(1)

    def is_zero(self, v, scale=1) -> bool:
        return v == 0

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, v) -> str:
        return format_scalar(v)

    def __repr__(self):
        return f"<backend {self.name}>"


class RationalBackend(Backend):
    name = "rational"

    def convert(self, v):
        if isinstance(v, QuadElement):
            if v.q != 0:
                raise ValueError("irrational value in rational backend")
            return v.p
        return Fraction(v)

    def parse(self, s: str):
        return Fraction(s)


class QuadraticBackend(Backend):
    def __init__(self, d: int):
        _, sf = squarefree_decompose(d)
        if sf != d or d <= 1:
            raise ValueError("d must be square-free and > 1")
        self.d = d
        self.name = f"quad:{d}"

    def convert(self, v):
        if isinstance(v, QuadElement):
            if v.q == 0:
                return QuadElement(v.p, 0, self.d)
            if v.d != self.d:
                raise ValueError(f"cannot convert sqrt({v.d}) element to {self.name}")
            return v
        return QuadElement(Fraction(v), 0, self.d)

    def sqrt_of(self, r: Fraction) -> QuadElement:
        """Exact square root of a nonnegative rational, if it lies in the field."""
        s, d = sqrt_fraction(Fraction(r))
        if d == 1:
            return QuadElement(s, 0, self.d)
        if d == self.d:
            return QuadElement(0, s, self.d)
        raise ValueError(f"sqrt({r}) not in {self.name}")

    def parse(self, s: str):
        m = _QUAD_RE.match(s)
        if m:
            q = Fraction(m.group("q"))
            if m.group("sq") == "-":
                q = -q
            d = int(m.group("d"))
            if d != self.d:
                raise ValueError(f"field mismatch: sqrt({d}) vs {self.name}")
            return QuadElement(Fraction(m.group("p")), q, self.d)
        return QuadElement(Fraction(s), 0, self.d)


class FloatBackend(Backend):
    """mpmath big-float backend with a declared binary precision.

    Zero tests are relative: |v| <= 2^(-precision/2) * max(1, scale), with
    scale the largest magnitude seen in the computation being checked."""

    exact = False

    def __init__(self, precision_bits: int = 256):
        if precision_bits < 8:
            raise ValueError("precision too small")
        self.precision = precision_bits
        self.name = f"float:{precision_bits}"
        self.tolerance = mpmath.mpf(2) ** (-precision_bits // 2)

    def workprec(self):
        return mpmath.workprec(self.precision)

    def convert(self, v):
        with self.workprec():
            if isinstance(v, QuadElement):
                return mpmath.mpf(v.p.numerator) / v.p.denominator + (
                    mpmath.mpf(v.q.numerator) / v.q.denominator
                ) * mpmath.sqrt(v.d)
            if isinstance(v, Fraction):
                return mpmath.mpf(v.numerator) / v.denominator
            return mpmath.mpf(v)

    def is_zero(self, v, scale=1) -> bool:
        s = abs(mpmath.mpf(scale)) if scale else 1
        return abs(v) <= self.tolerance * max(1, s)

    def tan_pi_over(self, m: int):
        with self.workprec():
            return mpmath.tan(mpmath.pi / m)

    def parse(self, s: str):
        with self.workprec():
            return mpmath.mpf(s)


RATIONAL = RationalBackend()

_quad_cache: dict[int, QuadraticBackend] = {}


def quadratic(d: int) -> QuadraticBackend:
    if d not in _quad_cache:
        _quad_cache[d] = QuadraticBackend(d)
    return _quad_cache[d]


def bigfloat(bits: int = 256) -> FloatBackend:
    return FloatBackend(bits)


def backend_from_name(name: str) -> Backend:
    """Parse a --backend flag value: rational, quad:d, float:bits."""
    if name == "rational":
        return RATIONAL
    if name.startswith("quad:"):
        return quadratic(int(name.split(":", 1)[1]))
    if name.startswith("float:"):
        return bigfloat(int(name.split(":", 1)[1]))
    if name == "float":
        return bigfloat()
    raise ValueError(f"unknown backend {name!r}")


def backend_of(v) -> Backend:
    """Best-effort backend for a scalar value."""
    if isinstance(v, QuadElement):
        return quadratic(v.d)
    if isinstance(v, mpmath.mpf):
        return bigfloat(mpmath.mp.prec)
    return RATIONAL
