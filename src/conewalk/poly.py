"""Bivariate polynomials with field coefficients, the Laplacian, and the
classical wedge-vanishing harmonic polynomials Im(x1 + i x2)^m.

Terms are kept in a map from exponent pairs (i, j) -> coefficient of
x1^i x2^j; zero coefficients are never stored.  The degree of the zero
polynomial is -1.

The public constructor and :meth:`Poly.map_coeffs` drop every coefficient
that compares equal to 0.  Operations whose results provably hold no zero
keep that invariant without testing each term again (``Poly._of``):

- a derivative multiplies stored coefficients by positive integers, and a
  negation flips their sign; neither gives 0 (mpmath has no underflow, and a
  binary float times an integer >= 1 cannot underflow);
- a homogeneous part keeps a subset of the stored terms;
- a sum tests only the exponents where both operands had a term.

Products, scalar multiples and :meth:`Poly.map_coeffs` may cancel or meet a
zero factor, so they test every term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundaryPointError, ValidationError, integer
from .scalars import exact_derivative, exact_poly_sum


def _is_stored_zero(c) -> bool:
    # exact scalars compare equal to 0; floats are dropped only when exactly 0
    try:
        return c == 0
    except TypeError:
        return False


class Poly:
    """Immutable bivariate polynomial indexed by exponent pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValidationError("negative exponent")
                if not _is_stored_zero(c):
                    t[(i, j)] = c
        self.terms = t

    @classmethod
    def _of(cls, terms: dict) -> "Poly":
        """A Poly holding terms as they are: only for results that provably
        hold no zero coefficient and no negative exponent."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly":
        return cls({(i, j): c})

    @classmethod
    def x1(cls) -> "Poly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def x2(cls) -> "Poly":
        return cls({(0, 1): Fraction(1)})

    # ---- ring operations ----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            if k in t:
                s = t[k] + c
                if _is_stored_zero(s):
                    del t[k]
                else:
                    t[k] = s
            else:
                t[k] = c
        return Poly._of(t)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            t = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    k = (i1 + i2, j1 + j2)
                    p = c1 * c2
                    t[k] = t[k] + p if k in t else p
            return Poly(t)
        return Poly({k: c * other for k, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        n = integer(n, "power", 0)
        out = Poly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---- structure -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def homogeneous_part(self, k: int) -> "Poly":
        return Poly._of({e: c for e, c in self.terms.items() if e[0] + e[1] == k})

    def homogeneous_parts(self) -> dict[int, "Poly"]:
        out: dict[int, Poly] = {}
        for (i, j), c in self.terms.items():
            out.setdefault(i + j, Poly())
        for k in out:
            out[k] = self.homogeneous_part(k)
        return out

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), Fraction(0))

    def power_basis_coeffs(self, n: int) -> list:
        """Coefficients [a_0 .. a_n] of the degree-n homogeneous part in the
        basis x2^i x1^(n-i)."""
        return [self.terms.get((n - i, i), Fraction(0)) for i in range(n + 1)]

    @classmethod
    def from_power_basis(cls, n: int, coeffs) -> "Poly":
        return cls({(n - i, i): coeffs[i] for i in range(n + 1)})

    # ---- calculus ------------------------------------------------------
    def diff(self, var: int, times: int = 1) -> "Poly":
        """times-th partial derivative with respect to x1 (var=1) or x2
        (var=2), in one pass over the terms.  Exact coefficients (int,
        Fraction, or QuadElement of one field) take one product each,
        c * e(e-1)...(e-times+1) (:func:`conewalk.scalars.exact_derivative`).
        Any other coefficient is multiplied by e, e-1, ..., e-times+1 in
        turn, the products that times single derivatives form, so float
        coefficients round as they would there.  ValidationError for a var
        other than 1 or 2 or a negative times; times = 0 returns self."""
        if var not in (1, 2) or times < 0:
            raise ValidationError(f"no derivative {times} times in x{var}: var is 1 or 2, times >= 0")
        if times == 0:
            return self
        t = exact_derivative(self.terms, var, times)
        if t is not None:
            return Poly._of(t)
        t = {}
        if var == 1:
            for (i, j), c in self.terms.items():
                if i >= times:
                    for e in range(i, i - times, -1):
                        c = c * e
                    t[(i - times, j)] = c
        else:
            for (i, j), c in self.terms.items():
                if j >= times:
                    for e in range(j, j - times, -1):
                        c = c * e
                    t[(i, j - times)] = c
        return Poly._of(t)

    def evaluate(self, x1, x2):
        """Evaluate at a point (convert coefficients first for array inputs).

        Exact coefficients at an exact point (int, Fraction, or QuadElement
        of one field) are summed in integers over one common denominator
        (:func:`conewalk.scalars.exact_poly_sum`), giving the value, type
        and field the scalar sum gives.  Any other input (mpf, float, numpy
        arrays, Polys) is summed in storage order as c * x1**i * x2**j,
        each power of x1 and x2 raised once: the float sums that the
        digests of tests/test_precision.py pin bit for bit."""
        v = exact_poly_sum(self.terms, ((x1, x2),), (1,))
        if v is not None:
            return v
        p1, p2 = {}, {}
        out = 0
        for (i, j), c in self.terms.items():
            if i not in p1:
                p1[i] = x1**i
            if j not in p2:
                p2[j] = x2**j
            out = out + c * p1[i] * p2[j]
        return out

    def substitute_linear(self, a11, a12, a21, a22) -> "Poly":
        """Compose with the linear map x1 -> a11*y1 + a12*y2, x2 -> a21*y1 + a22*y2."""
        u = Poly({(1, 0): a11, (0, 1): a12})
        v = Poly({(1, 0): a21, (0, 1): a22})
        out = Poly()
        for (i, j), c in self.terms.items():
            out = out + c * (u**i) * (v**j)
        return out

    def map_coeffs(self, fn) -> "Poly":
        return Poly({e: fn(c) for e, c in self.terms.items()})

    def max_abs_float(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            sup = (f"x1^{i}" if i > 1 else "x1" if i == 1 else "") + (
                f"*x2^{j}" if j > 1 else "*x2" if j == 1 else ""
            )
            sup = sup.lstrip("*") or "1"
            parts.append(f"({c})*{sup}")
        return "Poly(" + " + ".join(parts) + ")"


def laplacian(f: Poly) -> Poly:
    """d^2 f/dx1^2 + d^2 f/dx2^2."""
    return f.diff(1, 2) + f.diff(2, 2)


def im_power(m: int) -> Poly:
    """Im(x1 + i x2)^m: the degree-m homogeneous polynomial vanishing on the
    boundary of the opening-pi/m wedge, with integer coefficients
    sum_k (-1)^k C(m, 2k+1) x1^(m-2k-1) x2^(2k+1)."""
    m = integer(m, "m", 0)
    t = {}
    for k in range(0, (m + 1) // 2):
        t[(m - 2 * k - 1, 2 * k + 1)] = Fraction((-1) ** k * math.comb(m, 2 * k + 1))
    return Poly(t)


def re_power(m: int) -> Poly:
    """Re(x1 + i x2)^m."""
    m = integer(m, "m", 0)
    t = {}
    for k in range(0, m // 2 + 1):
        t[(m - 2 * k, 2 * k)] = Fraction((-1) ** k * math.comb(m, 2 * k))
    return Poly(t)


def _boundary_distance(m: int, x1: float, x2: float) -> float:
    """Euclidean distance from a point to the nearer boundary ray of the
    opening-pi/m wedge."""
    alpha = math.pi / m
    d0 = abs(x2)
    d1 = abs(math.sin(alpha) * x1 - math.cos(alpha) * x2)
    return min(d0, d1)


def boundary_ratio(m: int, x1, x2) -> float:
    """u(x) / (|x|^(m-1) * dist(x, boundary)) for the opening-pi/m wedge;
    lies in [1, m] for interior points."""
    m = integer(m, "m", 1)
    xf1, xf2 = float(x1), float(x2)
    alpha = math.pi / m
    ang = math.atan2(xf2, xf1)
    if not (0 < ang < alpha):
        raise ValidationError("point not strictly inside the wedge")
    delta = _boundary_distance(m, xf1, xf2)
    if delta == 0:
        raise BoundaryPointError("point lies on the boundary")
    r = math.hypot(xf1, xf2)
    u = float(im_power(m).evaluate(xf1, xf2))
    return u / (r ** (m - 1) * delta)
