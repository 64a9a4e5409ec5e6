"""Polynomial ring, calculus, and the classical wedge polynomials."""

import math
import random
from fractions import Fraction

import pytest

from conewalk import (
    Poly,
    QuadElement,
    ValidationError,
    bigfloat,
    boundary_ratio,
    im_power,
    laplacian,
    re_power,
)


def test_ring_ops():
    x1, x2 = Poly.x1(), Poly.x2()
    p = (x1 + x2) ** 2
    assert p == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert Poly.zero().degree() == -1


def test_zero_coefficients_dropped():
    p = Poly({(1, 0): Fraction(1)}) - Poly({(1, 0): Fraction(1)})
    assert p.terms == {}


def test_diff_and_laplacian():
    f = Poly({(3, 0): Fraction(1), (1, 2): Fraction(-3)})  # x1^3 - 3 x1 x2^2
    assert laplacian(f).is_zero()  # Re(x1+ix2)^3 is harmonic
    assert f.diff(1) == Poly({(2, 0): Fraction(3), (0, 2): Fraction(-3)})


def test_power_basis_roundtrip():
    f = Poly({(3, 0): Fraction(2), (1, 2): Fraction(5), (0, 3): Fraction(-1)})
    c = f.power_basis_coeffs(3)
    assert c == [Fraction(2), Fraction(0), Fraction(5), Fraction(-1)]
    assert Poly.from_power_basis(3, c) == f


def test_substitute_linear():
    f = Poly({(1, 1): Fraction(1)})  # x1*x2
    g = f.substitute_linear(Fraction(2), Fraction(1), Fraction(0), Fraction(3))
    # (2y1 + y2)(3y2) = 6 y1 y2 + 3 y2^2
    assert g == Poly({(1, 1): Fraction(6), (0, 2): Fraction(3)})


def test_im_power_frozen():
    assert im_power(2) == Poly({(1, 1): Fraction(2)})
    assert im_power(3) == Poly({(2, 1): Fraction(3), (0, 3): Fraction(-1)})
    assert im_power(4) == Poly({(3, 1): Fraction(4), (1, 3): Fraction(-4)})


def test_im_re_harmonic_and_boundary():
    for m in range(1, 9):
        assert laplacian(im_power(m)).is_zero()
        assert laplacian(re_power(m)).is_zero()
        # vanishes on the ray x2 = 0
        assert all(j >= 1 for _, j in im_power(m).terms)
        # vanishes on the sloped ray x2 = tan(pi/m) x1 (finite slope only)
        if m >= 3:
            t = math.tan(math.pi / m)
            assert abs(im_power(m).evaluate(1.0, t)) < 1e-12


def test_boundary_ratio_bounds():
    for m in (2, 3, 4, 6):
        for k in range(1, 10):
            ang = math.pi / m * k / 10
            x1, x2 = math.cos(ang), math.sin(ang)
            r = boundary_ratio(m, x1, x2)
            assert 1 - 1e-9 <= r <= m + 1e-9


def test_boundary_ratio_rejects_outside():
    with pytest.raises(ValidationError):
        boundary_ratio(3, 1.0, -0.5)


def test_negative_exponent_rejected():
    with pytest.raises(ValidationError):
        Poly({(-1, 0): Fraction(1)})


# ---- kernels that skip the zero test ------------------------------------


def single_diff(p, var):
    """One derivative term by term, each result through the public
    constructor: the reference for Poly.diff(var, times)."""
    t = {}
    for (i, j), c in p.terms.items():
        if var == 1 and i > 0:
            t[(i - 1, j)] = c * i
        elif var == 2 and j > 0:
            t[(i, j - 1)] = c * j
    return Poly(t)


def dense_poly(degree, coeff, seed=0):
    rng = random.Random(seed)
    return Poly({(i, n - i): coeff(rng) for n in range(degree + 1) for i in range(n + 1)})


FIELDS = {
    "Q": lambda rng: Fraction(rng.randrange(-99, 100) or 1, rng.randrange(1, 13)),
    "Q(sqrt 3)": lambda rng: QuadElement(Fraction(rng.randrange(-99, 100), rng.randrange(1, 13)),
                                         Fraction(rng.randrange(1, 50), rng.randrange(1, 7)), 3),
    "float:256": lambda rng: bigfloat(256).convert(Fraction(rng.randrange(1, 10**9), 3**17)),
}


def stored(p):
    """Exponents in storage order with exact values or exact binary mpf values."""
    return [(e, getattr(c, "_mpf_", c)) for e, c in p.terms.items()]


@pytest.mark.parametrize("field", FIELDS)
def test_diff_times_equals_repeated_single_derivatives(field):
    p = dense_poly(9, FIELDS[field])
    for var in (1, 2):
        for times in range(12):
            want = p
            for _ in range(times):
                want = single_diff(want, var)
            got = p.diff(var, times)
            assert stored(got) == stored(want), (var, times)
            assert got.degree() == max(-1, 9 - times)


def test_derivative_past_the_degree_is_zero():
    f = Poly({(3, 0): Fraction(1), (1, 2): Fraction(-3), (0, 0): Fraction(5)})
    assert f.diff(1, 4).terms == {} and f.diff(2, 3).terms == {}
    assert f.diff(1, 4).degree() == -1 and f.diff(1, 0) == f


def test_no_kernel_result_stores_a_zero():
    fl = bigfloat(256)
    x = fl.convert(Fraction(1, 3))
    for c in (Fraction(2, 7), QuadElement(1, Fraction(1, 2), 3), x):
        p = Poly({(2, 1): c, (1, 0): c, (0, 0): c})
        q = Poly({(2, 1): -c, (0, 3): c})
        for r in (p + q, q + p, p - p, -p + p, p.diff(1, 2), (p + q).homogeneous_part(3)):
            assert all(v != 0 for v in r.terms.values()), r
        assert set((p + q).terms) == {(1, 0), (0, 0), (0, 3)}
        assert (p - p).terms == {} and (p - p).degree() == -1
    # x + (-x) is an exact mpf zero, and the sum drops it
    assert Poly({(1, 1): x}) + Poly({(1, 1): -x}) == Poly.zero()


POINTS = {
    "Q": (Fraction(3, 7), Fraction(-5, 2)),
    "Q(sqrt 3)": (QuadElement(Fraction(1, 2), Fraction(1, 3), 3), QuadElement(-2, Fraction(3, 5), 3)),
    "float:256": (bigfloat(256).convert(Fraction(2, 3)), bigfloat(256).convert(Fraction(-7, 5))),
}


@pytest.mark.parametrize("field", FIELDS)
def test_evaluate_equals_term_by_term_sum(field):
    """evaluate raises each power once and gives the sum of c * x1**i * x2**j
    in storage order bit for bit; every exponent occurs in several terms."""
    p = dense_poly(9, FIELDS[field])
    x1, x2 = POINTS[field]
    want = 0
    for (i, j), c in p.terms.items():
        want = want + c * x1**i * x2**j
    got = p.evaluate(x1, x2)
    assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)
