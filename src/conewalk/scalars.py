"""Scalar field backends: exact rationals, quadratic extensions Q(sqrt(d)),
and arbitrary-precision binary floats.

Polynomial and matrix code in this package is generic over the scalar type:
it only needs field arithmetic through the usual Python operators plus a
backend object for conversions, zero tests and string round-trips.  Exact
values are ``fractions.Fraction`` or :class:`QuadElement`.  Floats are mpf
values of one mpmath context per precision, so each carries its field's
precision: mpmath rounds an operation to the context of its mpf operand
(the left one when both are mpf), and mpmath's global precision affects
only how many digits :func:`format_scalar` prints.

Importing this module loads neither numpy nor mpmath.  mpmath loads with
the first float field (:func:`bigfloat`, ``--backend float:N``, a
non-exact :func:`conewalk.cones.make_cone`) or when a float value is
unpickled, so exact work never loads it.
"""

from __future__ import annotations

import copyreg
import math
import re
import sys
from fractions import Fraction

from .errors import ValidationError, integer

#: largest trial divisor of squarefree_decompose: it settles every n whose
#: part without prime factors below this limit is below the limit cubed
SQUAREFREE_TRIAL_LIMIT = 1 << 20


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a positive integer n as s^2 * d with d square-free; returns (s, d).

    Trial division runs only while p^3 <= m for the cofactor m left over.
    Then every prime factor of m exceeds its cube root, so m is 1, a prime,
    a product of two distinct primes (all square-free) or a prime squared,
    which math.isqrt tells apart.  A cofactor still at least p^3 when p
    reaches SQUAREFREE_TRIAL_LIMIT raises ValidationError."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d = 1, 1
    p = 2
    m = n
    while p * p * p <= m:
        if p > SQUAREFREE_TRIAL_LIMIT:
            raise ValidationError(
                f"cannot find the square-free part of {n}: a factor of {m.bit_length()} bits "
                f"has no prime factor below {SQUAREFREE_TRIAL_LIMIT}"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


def _rational(v, field: str) -> Fraction:
    """Fraction(v); ValidationError (a ValueError) for a value no Fraction
    holds: an mpf, inf, nan, None, or a string that names no rational."""
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{v!r} is not an exact finite value, so not in {field}") from None


def sqrt_fraction(r: Fraction) -> tuple[Fraction, int]:
    """Decompose a nonnegative rational as r = s^2 * d with d a square-free
    positive integer; sqrt(r) = s * sqrt(d).  Returns (s, d)."""
    r = _rational(r, "rational")
    if r < 0:
        raise ValidationError(f"sqrt_fraction needs a nonnegative rational, got {r}")
    if r == 0:
        return Fraction(0), 1
    sn, dn = squarefree_decompose(r.numerator)
    sd, dd = squarefree_decompose(r.denominator)
    # sqrt(dn/dd) = sqrt(dn*dd)/dd, and dn*dd = g^2 * (dn/g)(dd/g) with
    # g = gcd(dn, dd) and the last two factors square-free and coprime
    g = math.gcd(dn, dd)
    return Fraction(sn * g, sd * dd), dn * dd // (g * g)


class QuadElement:
    """Element p + q*sqrt(d) of the real quadratic field Q(sqrt(d)),
    d a square-free integer > 1.  Immutable; mixes freely with int/Fraction.

    Stored as integers (a + b*sqrt(d)) / c with c > 0 and gcd(a, b, c) = 1,
    so every value has one form; ``p`` and ``q`` are derived Fractions."""

    __slots__ = ("_a", "_b", "_c", "d")

    def __init__(self, p, q, d: int):
        p, q = _rational(p, "a quadratic field"), _rational(q, "a quadratic field")
        a, b = p.numerator * q.denominator, q.numerator * p.denominator
        c = p.denominator * q.denominator
        g = math.gcd(a, b, c)
        self._a, self._b, self._c, self.d = a // g, b // g, c // g, d

    @property
    def p(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def q(self) -> Fraction:
        return Fraction(self._b, self._c)

    def _operand(self, other):
        """other as integers (a, b, c) plus the field d of the result, or
        None if it is no scalar (a Poly, say), whose own operator then
        runs.  A rational-valued element takes the field of the other
        operand.  An element of another Q(sqrt(d)), a float or an mpf does
        not combine with it: ValidationError (a ValueError)."""
        if isinstance(other, QuadElement):
            if other.d == self.d or other._b == 0:
                return other._a, other._b, other._c, self.d
            if self._b == 0:
                return other._a, other._b, other._c, other.d
            raise ValidationError(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
        if isinstance(other, int):
            return other, 0, 1, self.d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self.d
        if isinstance(other, float) or is_mpf(other):
            raise ValidationError(f"cannot mix sqrt({self.d}) and the float {other!r}")
        return None

    def _plus(self, a, b, c, d):
        sa, sb, sc = self._a, self._b, self._c
        return _reduced(sa * c + a * sc, sb * c + b * sc, sc * c, d)

    def _over(self, a, b, c, d):
        sa, sb, sc = self._a, self._b, self._c
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("division by zero quadratic element")
            if a < 0:
                a, c = -a, -c
            return _reduced(sa * c, sb * c, sc * a, d)
        # (a + b*sqrt(d))/c inverts to c*(a - b*sqrt(d)) / (a^2 - b^2 d)
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        if norm < 0:
            norm, a, b = -norm, -a, -b
        return _reduced(c * (sa * a - sb * b * d), c * (sb * a - sa * b), sc * norm, d)

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(*o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(-o[0], -o[1], o[2], o[3])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return (-self)._plus(*o)

    def __mul__(self, other):
        if type(other) is int:
            # gcd(a, b, c) = 1, so gcd(a*n, b*n, c) = gcd(n, c)
            c = self._c
            g = math.gcd(other, c)
            if g != 1:
                other, c = other // g, c // g
            return _make(self._a * other, self._b * other, c, self.d)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, c, d = o
        sa, sb, sc = self._a, self._b, self._c
        if b == 0:
            return _reduced(sa * a, sb * a, sc * c, d)
        return _reduced(sa * a + sb * b * d, sa * b + sb * a, sc * c, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElement":
        return _make(1, 0, 1, self.d)._over(self._a, self._b, self._c, self.d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._over(*o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _make(*o)._over(self._a, self._b, self._c, o[3])

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _make(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return _make(-self._a, -self._b, self._c, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadElement):
            if other.d == self.d or (self._b == 0 and other._b == 0):
                return self._a == other._a and self._b == other._b and self._c == other._c
            return False
        if isinstance(other, int):
            return self._b == 0 and self._c == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._c == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def sign(self) -> int:
        return _sign(self._a, self._b, self.d)  # c > 0 does not change the sign

    def __lt__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(-o[0], -o[1], o[2], o[3]).sign() < 0

    def __gt__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(-o[0], -o[1], o[2], o[3]).sign() > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __float__(self):
        # a/c and b/c round like float(p) and float(q): int division is exact-then-rounded
        return self._a / self._c + self._b / self._c * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadElement({self.p!r}, {self.q!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def _sign(a: int, b: int, d: int) -> int:
    """The sign of a + b*sqrt(d) for integers a, b and d >= 0 (d is not
    read when b = 0)."""
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # mixed signs: compare a^2 against b^2 d
    lhs, rhs = a * a, b * b * d
    if b > 0:  # a < 0
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)
    return 1 if lhs > rhs else (-1 if lhs < rhs else 0)


def _make(a: int, b: int, c: int, d: int) -> QuadElement:
    """(a + b*sqrt(d)) / c from integers already in lowest terms, c > 0."""
    x = object.__new__(QuadElement)
    x._a, x._b, x._c, x.d = a, b, c, d
    return x


def _reduced(a: int, b: int, c: int, d: int) -> QuadElement:
    """(a + b*sqrt(d)) / c with c > 0, brought to lowest terms."""
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return _make(a, b, c, d)


def exact_field(values):
    """The field a sum of products of values lands in: 0 when all are int,
    1 when some are Fraction and none QuadElement, d when the QuadElements
    all lie in Q(sqrt(d)).  None when some value is of another type or the
    QuadElements come from two fields."""
    types = set(map(type, values))
    if QuadElement in types:
        if not types <= {int, Fraction, QuadElement}:
            return None
        ds = {v.d for v in values if type(v) is QuadElement}
        return ds.pop() if len(ds) == 1 else None
    if types <= {int}:
        return 0
    return 1 if types <= {int, Fraction} else None


def exact_poly_sum(terms: dict, points, weights):
    """sum_k weights[k] * sum_(i,j) c_ij * x1_k**i * x2_k**j over the terms
    {(i, j): c_ij} of a polynomial and the points (x1_k, x2_k), computed in
    integers when every value is an int, Fraction or QuadElement of one
    field Q(sqrt(d)).

    Each value is written as (a + b*sqrt(d)) / c, the sum is taken over
    one common denominator, and one scalar is built at the end: the value,
    type and field that the same sum in scalar arithmetic gives (an int
    when every input is one, else a Fraction, else a QuadElement of d).
    Returns None for any other input (mpf, float, numpy, Poly, or
    QuadElements of two fields), which the caller sums in its own
    arithmetic."""
    values = list(weights)
    if terms:
        values += terms.values()
        values += [x for point in points for x in point]
    d = exact_field(values)
    if d is None:
        return None
    if not terms:
        return 0 * sum(weights)  # no term is evaluated: the weights alone set the type
    # on Q every b is 0, so the field codes d = 0 and 1 are never read
    coeffs = {e: _triple(c) for e, c in terms.items()}
    den = math.lcm(*[c for _, _, c in coeffs.values()])
    rows: dict[int, list] = {}
    for (i, j), (a, b, c) in coeffs.items():
        rows.setdefault(i, []).append((j, a * (den // c), b * (den // c)))
    n1, n2 = max(rows), max(j for _, j in terms)
    sums, dens = [], []
    for (x1, x2), w in zip(points, weights):
        a1, b1, c1 = _triple(x1)
        a2, b2, c2 = _triple(x2)
        p1, p2 = _powers(a1, b1, c1, n1, d), _powers(a2, b2, c2, n2, d)
        sa = sb = 0
        for i, row in rows.items():
            ra = rb = 0
            for j, a, b in row:
                qa, qb = p2[j]
                ra += a * qa + b * qb * d
                rb += a * qb + b * qa
            qa, qb = p1[i]
            sa += ra * qa + rb * qb * d
            sb += ra * qb + rb * qa
        wa, wb, wc = _triple(w)
        sums.append((wa * sa + wb * sb * d, wa * sb + wb * sa))
        dens.append(wc * c1**n1 * c2**n2)
    common = math.lcm(*dens)
    na = sum(sa * (common // dk) for (sa, _), dk in zip(sums, dens))
    if d == 0:
        return na
    if d == 1:
        return Fraction(na, den * common)
    nb = sum(sb * (common // dk) for (_, sb), dk in zip(sums, dens))
    return _reduced(na, nb, den * common, d)


def exact_derivative(terms: dict, var: int, times: int):
    """The terms of the times-th partial derivative with respect to x1
    (var=1) or x2 (var=2, the only other var Poly.diff passes) of the
    polynomial {(i, j): c_ij}, when every coefficient is an int, Fraction
    or QuadElement of one field: each coefficient times one integer,
    e(e-1)...(e-times+1) = math.perm(e, times), for its exponent e of the
    variable.  Exact products equal the
    product of the factors taken one at a time, and an exact nonzero times
    a positive integer is nonzero.  Returns None for any other
    coefficients (mpf, float, or QuadElements of two fields), which the
    caller multiplies factor by factor so that floats round as they
    would there."""
    if exact_field(terms.values()) is None:
        return None
    perm = math.perm
    if var == 1:
        return {(i - times, j): c * perm(i, times) for (i, j), c in terms.items() if i >= times}
    return {(i, j - times): c * perm(j, times) for (i, j), c in terms.items() if j >= times}


def exact_im_sign(c, s, n: int) -> int | None:
    """The sign of Im((c + i s)^n) when c and s are exact (int, Fraction,
    or QuadElement of one field Q(sqrt(d))), computed in integers: over the
    common denominator of c and s, which is positive, z = c + i s has
    parts a + b*sqrt(d) with integer a and b, and z^n comes from binary
    powering with no gcd taken.  Returns None for any other c or s (mpf),
    which the caller tests in its own field."""
    d = exact_field((c, s))
    if d is None:
        return None
    a1, b1, c1 = _triple(c)
    a2, b2, c2 = _triple(s)

    def times(u, v):  # (u0 + i u1)(v0 + i v1) with parts (a, b) meaning a + b*sqrt(d)
        (ra, rb), (ia, ib) = u
        (sa, sb), (ta, tb) = v
        return ((ra * sa + rb * sb * d - ia * ta - ib * tb * d, ra * sb + rb * sa - ia * tb - ib * ta),
                (ra * ta + rb * tb * d + ia * sa + ib * sb * d, ra * tb + rb * ta + ia * sb + ib * sa))

    out, base = ((1, 0), (0, 0)), ((a1 * c2, b1 * c2), (a2 * c1, b2 * c1))
    while n:
        if n & 1:
            out = times(out, base)
        n >>= 1
        if n:
            base = times(base, base)
    return _sign(*out[1], d)


def _triple(v) -> tuple[int, int, int]:
    """An int, Fraction or QuadElement as integers (a, b, c), c > 0, with
    v = (a + b*sqrt(d)) / c."""
    if type(v) is QuadElement:
        return v._a, v._b, v._c
    return v.numerator, 0, v.denominator


def _powers(a: int, b: int, c: int, n: int, d: int) -> list[tuple[int, int]]:
    """The numerators of ((a + b*sqrt(d)) / c)**i over c**n, i = 0..n, as
    integer pairs (a_i, b_i) meaning a_i + b_i*sqrt(d)."""
    out = [(1, 0)] * (n + 1)
    for i in range(1, n + 1):
        pa, pb = out[i - 1]
        out[i] = (pa * a + pb * b * d, pa * b + pb * a)
    if c != 1:
        t = c
        for i in range(n - 1, -1, -1):
            pa, pb = out[i]
            out[i] = (pa * t, pb * t)
            t *= c
    return out


def is_mpf(v) -> bool:
    """Whether v is an mpmath real of any context.  False while mpmath is
    not loaded: no mpf can exist before its module is imported."""
    mp_python = sys.modules.get("mpmath.ctx_mp_python")
    return mp_python is not None and isinstance(v, mp_python._mpf)


def field_of(values, default: "Backend") -> "Backend":
    """The float field of the first mpf among values (the coefficients of a
    float polynomial), else default."""
    v = next((v for v in values if is_mpf(v)), None)
    return default if v is None else bigfloat(v.context.prec)


def exact_bits(v) -> int:
    """Bit length of the largest integer in an exact value: the numerators
    and denominators of p and q for p + q*sqrt(d), of the value itself for
    an int or Fraction."""
    parts = (v.p, v.q) if isinstance(v, QuadElement) else (Fraction(v),)
    return max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in parts)


_QUAD_RE = re.compile(
    r"^\s*(?P<p>[+-]?\d+(?:/\d+)?)\s*(?P<sq>[+-])\s*(?P<q>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<d>\d+)\)\s*$"
)


def format_scalar(v) -> str:
    """Canonical string form: 'p/q' rational, 'p/q+r/s*sqrt(d)' quadratic,
    decimal string for floats.  ValidationError for a value that is none of
    these, such as inf, nan or None."""
    if isinstance(v, QuadElement):
        qa = abs(v.q)
        sgn = "-" if v.q < 0 else "+"
        return f"{v.p}{sgn}{qa}*sqrt({v.d})"
    if is_mpf(v):
        import mpmath

        digits = max(17, int(mpmath.mp.prec * 0.30103) + 2)
        return mpmath.nstr(v, digits, strip_zeros=True)
    return str(_rational(v, "rational"))


#: tan(pi/m) for the m whose value lies in Q or one Q(sqrt(d))
_TAN_PI_OVER = {1: Fraction(0), 3: QuadElement(0, 1, 3), 4: Fraction(1), 6: QuadElement(0, Fraction(1, 3), 3),
                8: QuadElement(-1, 1, 2), 12: QuadElement(2, -1, 3)}


def tan_field(m: int) -> "Backend":
    """The smallest field holding tan(pi/m): Q or one Q(sqrt(d)) for the m
    of _TAN_PI_OVER, float:256 for every other m."""
    v = _TAN_PI_OVER.get(m)
    if v is None:
        return bigfloat()
    return quadratic(v.d) if type(v) is QuadElement else RATIONAL


def roots_field(*rs) -> "Backend":
    """The smallest field holding sqrt(r) for each nonnegative rational r:
    Q, one Q(sqrt(d)), or float:256 when the roots need two fields."""
    ds = {sqrt_fraction(Fraction(r))[1] for r in rs} - {1}
    if len(ds) > 1:
        return bigfloat()
    return quadratic(ds.pop()) if ds else RATIONAL


def _values(part):
    """The scalars of a Poly (its coefficients) or of an iterable of scalars."""
    terms = getattr(part, "terms", None)
    return part if terms is None else terms.values()


class Backend:
    """Conversion, zero testing and string round-trips for one scalar field.

    Zero tests, the scale they are relative to, pivot choice, square roots,
    tan(pi/m) and lifting operands into the field differ between exact and
    float fields, so they live here and callers do not branch on the
    field's type.  On exact fields they never read a float value."""

    name = "abstract"
    exact = True

    def workprec(self):
        """Context manager setting mpmath's global precision to this
        field's (no-op when exact).  Field arithmetic does not need it; it
        serves code that calls module-level mpmath functions."""
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

    def vanishes(self, part, scale=1) -> bool:
        """True when every scalar of part (a Poly or an iterable) is zero."""
        return all(self.is_zero(v, scale) for v in _values(part))

    def scale(self, *parts):
        """Magnitude the zero tests of a computation on parts (Polys or
        iterables of scalars) are relative to; exact fields read no value."""
        return 1

    def pivot(self, column: list, scale=1) -> int | None:
        """Index of the entry of column to eliminate with (the first nonzero
        one on exact fields), or None when every entry is zero."""
        for i, v in enumerate(column):
            if not (v == 0):
                return i
        return None

    def lift(self, v):
        """v as an operand of this field's arithmetic.  Exact fields take
        Fraction and QuadElement operands as they are."""
        return v

    def mixes_with(self, other: "Backend") -> bool:
        """Whether this field's values and other's combine as they are: a
        field with itself, and Q with every exact field."""
        return self is other or (self.exact and other.exact and RATIONAL in (self, other))

    def sqrt(self, r):
        """The square root of a nonnegative rational r (on float fields, of
        any nonnegative value convert() takes) in this field; ValueError
        when it does not lie in the field.  In an exact field Q(sqrt(d)) it
        is s or s*sqrt(d) for a rational s, so r or r/d is the square of a
        rational, which math.isqrt tells without factoring."""
        r = Fraction(r)
        for k in (1, getattr(self, "d", 1)):  # Q is Q(sqrt(1)); math.isqrt refuses r < 0
            q = r / k
            n, m = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if n * n == q.numerator and m * m == q.denominator:
                return self.convert(Fraction(n, m) if k == 1 else QuadElement(0, Fraction(n, m), k))
        raise ValueError(f"sqrt({r}) is not in {self.name}")

    def tan_pi_over(self, m: int):
        """tan(pi/m) in this field; ValueError when it does not lie in it."""
        v = _TAN_PI_OVER.get(m)
        if v is None:
            raise ValueError(f"tan(pi/{m}) is not in a supported exact field")
        try:
            return self.convert(v)
        except ValueError:
            raise ValueError(f"tan(pi/{m}) not representable in {self.name}") from None

    def float_field(self) -> "FloatBackend":
        """The float field that transcendental functions of this field's
        values are computed in."""
        return bigfloat()

    def parse(self, s: str):
        """The value of this field that the string s names; ValueError when
        it names none, a zero denominator such as "1/0" included."""
        try:
            return self._parse(s)
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None

    def _parse(self, s: str):
        raise NotImplementedError

    def __repr__(self):
        return f"<backend {self.name}>"

    def __reduce__(self):
        # one object per field: a pickled field unpickles into it
        return backend_from_name, (self.name,)


class RationalBackend(Backend):
    name = "rational"

    def convert(self, v):
        if isinstance(v, QuadElement):
            if v.q != 0:
                raise ValidationError(f"{v} is irrational, so not in rational")
            return v.p
        return _rational(v, self.name)

    def _parse(self, s: str):
        return Fraction(s)


class QuadraticBackend(Backend):
    def __init__(self, d: int):
        """Q(sqrt(d)) for a square-free integer d >= 2."""
        d = integer(d, "d", 2)
        if squarefree_decompose(d)[1] != d:
            raise ValidationError(f"d must be square-free, got {d}")
        self.d = d
        self.name = f"quad:{d}"

    def convert(self, v):
        if isinstance(v, QuadElement):
            if v._b == 0:
                return _make(v._a, 0, v._c, self.d)
            if v.d != self.d:
                raise ValidationError(f"cannot convert sqrt({v.d}) element to {self.name}")
            return v
        return QuadElement(_rational(v, self.name), 0, self.d)

    def _parse(self, s: str):
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

    Its values are mpf values of the mpmath context :attr:`mp`, whose
    precision is the backend's, so arithmetic on them needs no precision
    block.  Zero tests are relative: |v| <= 2^(-precision/2) * max(1,
    scale), with scale the largest magnitude seen in the computation being
    checked."""

    exact = False

    def __init__(self, precision_bits: int = 256):
        precision_bits = integer(precision_bits, "precision", 8)
        self.precision = precision_bits
        self.name = f"float:{precision_bits}"
        import mpmath  # the first float field loads mpmath

        self.mp = mp = mpmath.MPContext()
        mp.prec = precision_bits
        # mp.mpf is a class of its own: a pickled value names the precision
        # and unpickles into the context of bigfloat(precision_bits)
        copyreg.pickle(mp.mpf, lambda v: (_unpickle_mpf, (precision_bits, v._mpf_)))
        self.tolerance = self.mp.mpf(2) ** (-precision_bits // 2)

    def workprec(self):
        import mpmath

        return mpmath.workprec(self.precision)

    def convert(self, v):
        """v as an mpf of this field; ValidationError (a ValueError) for a
        value that is no finite real number, such as inf, nan or None."""
        mp = self.mp
        x = v
        if type(v) is not mp.mpf:
            if isinstance(v, QuadElement):
                return self.convert(v.p) + self.convert(v.q) * mp.sqrt(v.d)
            if isinstance(v, Fraction):
                return mp.mpf(v.numerator) / v.denominator
            try:
                x = mp.mpf(v)
            except (TypeError, ValueError):
                x = mp.nan
        if not mp.isfinite(x):
            raise ValidationError(f"{v!r} is not a finite real number, so not in {self.name}")
        return x

    def is_zero(self, v, scale=1) -> bool:
        s = abs(self.mp.mpf(scale)) if scale else 1
        return abs(v) <= self.tolerance * max(1, s)

    def scale(self, *parts):
        """max(1, largest |value|) over the scalars of parts: a float, or an
        mpf when a value is beyond the float range."""
        s = max([1.0] + [abs(float(v)) for part in parts for v in _values(part)])
        return s if s < math.inf else max(abs(self.convert(v)) for part in parts for v in _values(part))

    def pivot(self, column: list, scale=1) -> int | None:
        """The entry of largest magnitude (the first of equal ones), or None
        when it is zero relative to scale."""
        best = max(range(len(column)), key=lambda i: abs(column[i]), default=None)
        if best is None or self.is_zero(column[best], scale):
            return None
        return best

    def lift(self, v):
        return self.convert(v)

    def float_field(self) -> "FloatBackend":
        return self

    def sqrt(self, r):
        v = self.convert(r)
        if v < 0:
            raise ValueError(f"sqrt of a negative value {v}")
        return self.mp.sqrt(v)

    def tan_pi_over(self, m: int):
        return self.mp.tan(self.mp.pi / m)

    def _parse(self, s: str):
        return self.mp.mpf(s)


def _unpickle_mpf(bits: int, mpf_tuple):
    return bigfloat(bits).mp.make_mpf(mpf_tuple)


RATIONAL = RationalBackend()

_quad_cache: dict[int, QuadraticBackend] = {}
_float_cache: dict[int, FloatBackend] = {}


def quadratic(d: int) -> QuadraticBackend:
    """The field Q(sqrt(d)): one object per field.  d is checked before
    the cache is read, so 2.0 or True never names a field, and only a
    field whose d is square-free enters the cache."""
    d = integer(d, "d", 2)
    if d not in _quad_cache:
        _quad_cache[d] = QuadraticBackend(d)
    return _quad_cache[d]


def bigfloat(bits: int = 256) -> FloatBackend:
    """The float field of this precision: one object per precision, as
    RATIONAL and quadratic(d) are one per field."""
    bits = integer(bits, "precision", 8)
    if bits not in _float_cache:
        _float_cache[bits] = FloatBackend(bits)
    return _float_cache[bits]


def backend_from_name(name: str) -> Backend:
    """Parse a --backend flag value: rational, float, quad:d, float:bits.
    ValidationError for any other name."""
    if name == "rational":
        return RATIONAL
    if name == "float":
        return bigfloat()
    kind, _, arg = str(name).partition(":")
    if kind in ("quad", "float") and arg.isdecimal():
        return quadratic(int(arg)) if kind == "quad" else bigfloat(int(arg))
    raise ValidationError(f"unknown backend {name!r}: rational, float, quad:d or float:bits")
