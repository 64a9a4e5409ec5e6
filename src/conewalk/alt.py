"""An independent second construction of the harmonic polynomial, used as a
cross-check oracle for the boundary-system builder.

The building block is a particular solution of the plane Laplace equation
with a monomial right-hand side: in polar form, x1^j x2^k is
r^n cos^j(beta) sin^k(beta) with n = j + k, and the trigonometric product
expands exactly into a finite cosine/sine series with rational
coefficients.  Each Fourier mode is integrated by dividing by
(n+2)^2 - l^2 (never zero, since l <= n), and the polar modes
r^(n+2) cos(l*beta), r^(n+2) sin(l*beta) convert back to genuine
polynomials through (x1^2 + x2^2)^((n+2-l)/2) times the real/imaginary
parts of (x1 + i x2)^l.  A harmonic correction then restores zero boundary
values on both rays of the wedge, and top-down monomial elimination of the
one-step drift rebuilds the harmonic polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .cones import ConeSpec, cone_for_table, make_cone
from .drift import drift_expansion
from .errors import (
    InsufficientMoments,
    InternalError,
    ResonantDegree,
    ValidationError,
)
from .poly import Poly, im_power, re_power
from .records import Record
from .walks import MomentTable


def _laurent_product(j: int, k: int) -> dict[int, int]:
    """Integer coefficients c_t of (z + 1/z)^j * (z - 1/z)^k as a Laurent
    polynomial; exponents run over -(j+k)..(j+k) with the parity of j+k."""
    coeffs = {0: 1}
    for sign_flip, reps in ((1, j), (-1, k)):
        for _ in range(reps):
            nxt: dict[int, int] = {}
            for t, c in coeffs.items():
                nxt[t + 1] = nxt.get(t + 1, 0) + c
                nxt[t - 1] = nxt.get(t - 1, 0) + sign_flip * c
            coeffs = nxt
    return coeffs


def trig_series(j: int, k: int) -> tuple[list, list]:
    """Exact expansion cos^j(b) sin^k(b) = sum_l a_l cos(l b) + s_l sin(l b),
    rational coefficients, l = 0..j+k.  The factor i^(-k) from
    sin = (z - 1/z)/(2i) is resolved by case analysis on k mod 4, never by
    numeric pi."""
    n = j + k
    c = _laurent_product(j, k)
    half = Fraction(1, 2**n)
    a = [Fraction(0)] * (n + 1)
    s = [Fraction(0)] * (n + 1)
    if k % 2 == 0:
        w = 1 if k % 4 == 0 else -1
        a[0] = w * half * c.get(0, 0)
        for l in range(1, n + 1):
            a[l] = 2 * w * half * c.get(l, 0)
    else:
        # i^(-k) * i = +1 for k = 1 mod 4, -1 for k = 3 mod 4
        w = 1 if k % 4 == 1 else -1
        for l in range(1, n + 1):
            s[l] = 2 * w * half * c.get(l, 0)
    return a, s


class FourierProfile(Record):
    """Mode coefficients of a particular solution with monomial Laplacian:
    the degree-(n+2) polynomial is r^(n+2) sum_l (kappa_l cos(l beta) +
    mu_s_l sin(l beta))."""

    n: int
    kappa: tuple
    mu_s: tuple
    parity: int

    def __post_init__(self):
        for l in range(self.n + 1):
            if l % 2 != self.parity and (self.kappa[l] != 0 or self.mu_s[l] != 0):
                raise ValidationError("mode parity violation")


def fourier_profile(j: int, k: int) -> FourierProfile:
    """Per-mode coefficients of the particular solution for rhs x1^j x2^k."""
    if j < 0 or k < 0:
        raise ValidationError("exponents must be >= 0")
    n = j + k
    a, s = trig_series(j, k)
    kappa = [a[l] / ((n + 2) ** 2 - l * l) for l in range(n + 1)]
    mu_s = [s[l] / ((n + 2) ** 2 - l * l) for l in range(n + 1)]
    return FourierProfile(n=n, kappa=tuple(kappa), mu_s=tuple(mu_s), parity=n % 2)


def polar_mode(total: int, l: int, kind: str) -> Poly:
    """r^total cos(l beta) or sin(l beta) as a polynomial; requires
    total >= l with total - l even."""
    if total < l or (total - l) % 2:
        raise ValidationError("mode does not reconstruct to a polynomial")
    radial = Poly({(2, 0): Fraction(1), (0, 2): Fraction(1)}) ** ((total - l) // 2)
    angular = re_power(l) if kind == "cos" else im_power(l)
    return radial * angular


def particular_solution(j: int, k: int) -> Poly:
    """A polynomial whose Laplacian is exactly x1^j x2^k (rational
    coefficients, homogeneous of degree j+k+2)."""
    prof = fourier_profile(j, k)
    n = prof.n
    out = Poly.zero()
    for l in range(n + 1):
        if prof.kappa[l] != 0:
            out = out + prof.kappa[l] * polar_mode(n + 2, l, "cos")
        if prof.mu_s[l] != 0:
            out = out + prof.mu_s[l] * polar_mode(n + 2, l, "sin")
    return out


def harmonic_correction(fp: Poly, m: int, n: int, cone: ConeSpec | None = None) -> Poly:
    """The harmonic polynomial g (combination of the degree-(n+2) real and
    imaginary power parts) making fp + g vanish on both rays of the pi/m
    wedge.  Solvable whenever n + 2 < m; at or above that degree the
    imaginary part may itself vanish on the sloped ray and no correction is
    guaranteed (ResonantDegree)."""
    if n + 2 >= m:
        raise ResonantDegree(f"degree {n + 2} >= m = {m}: correction not guaranteed")
    for (i, jj) in fp.terms:
        if i + jj != n + 2:
            raise ValidationError("fp must be homogeneous of degree n + 2")
    cone = cone or make_cone(m)
    backend = cone.backend
    reZ, imZ = re_power(n + 2), im_power(n + 2)
    one = backend.one()
    # on the ray x2 = 0: reZ(1,0) = 1, imZ(1,0) = 0, so the cosine-part
    # coefficient is fixed first and the system is triangular
    kap = -fp.evaluate(one, backend.zero())
    imZ_ray = imZ.evaluate(*cone.ray)
    scale = backend.scale(fp, [imZ_ray])
    if backend.is_zero(imZ_ray, scale):
        raise InternalError(f"second-ray value of the degree-{n + 2} imaginary part vanished")
    mu_c = -(fp.evaluate(*cone.ray) + kap * reZ.evaluate(*cone.ray)) / imZ_ray
    g = reZ.map_coeffs(lambda c: c * kap) + imZ.map_coeffs(lambda c: c * mu_c)
    return g


def eliminate_monomial(j: int, k: int, m: int, cone: ConeSpec | None = None):
    """The triple (f, g, F = f + g): Laplacian of F is x1^j x2^k and F
    vanishes on both rays of the pi/m wedge."""
    cone = cone or make_cone(m)
    f = particular_solution(j, k)
    g = harmonic_correction(f, m, j + k, cone)
    return f, g, f + g


def build_harmonic_alt(m: int, mu: MomentTable) -> Poly:
    """Rebuild the harmonic polynomial by monomial elimination: repeatedly
    cancel the top homogeneous part of the one-step drift using the
    boundary-corrected particular solutions.  Coefficient-identical to the
    boundary-system builder; kept fully independent of it."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    if mu.order < m:
        raise InsufficientMoments(f"need moments of order >= {m}, have {mu.order}")
    cone = cone_for_table(m, mu.backend)
    backend = cone.backend
    mu = mu.to(backend)
    h = im_power(m).map_coeffs(backend.lift)
    if m <= 2:
        return h
    scale = backend.scale(h)
    for s in range(m - 3, -1, -1):
        res = drift_expansion(h, mu)
        scale = max(scale, backend.scale(res))
        part = res.homogeneous_part(s)
        if part.is_zero():
            continue
        Q = Poly.zero()
        for (j, k), c in part.terms.items():
            if backend.is_zero(c, scale):
                continue
            F = eliminate_monomial(j, k, m, cone)[2]
            Q = Q + F.map_coeffs(lambda v: v * (-2 * c))
        h = h + Q
        scale = max(scale, backend.scale(h))
    final = drift_expansion(h, mu)
    if not backend.vanishes(final, scale):
        raise InternalError(f"nonzero drift after elimination: {final!r}")
    return h
