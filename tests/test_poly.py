"""Polynomial ring, calculus, and the classical wedge polynomials."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewalk import (
    Poly,
    QuadElement,
    ValidationError,
    bigfloat,
    boundary_ratio,
    format_scalar,
    im_power,
    laplacian,
    re_power,
)
from conewalk.scalars import exact_derivative, exact_poly_sum
from conftest import scalar_sum


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


def mixed_exact(d):
    """Random int, Fraction and (for d > 1) QuadElement coefficients of Q(sqrt d)."""
    def coeff(rng):
        kind = rng.randrange(3 if d > 1 else 2)
        n = rng.choice((rng.randrange(-9, 10) or 1, rng.randrange(-(10**30), 10**30) or 1))
        if kind == 0:
            return n
        if kind == 1:
            return Fraction(n, rng.randrange(1, 10**6))
        q = Fraction(rng.randrange(-50, 50), rng.randrange(1, 7))
        return QuadElement(Fraction(n, rng.randrange(1, 99)), q, d)
    return coeff


DIFF_FIELDS = {**FIELDS, "mixed Q": mixed_exact(1), "mixed Q(sqrt 2)": mixed_exact(2),
               "mixed Q(sqrt 3)": mixed_exact(3)}


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_diff_times_equals_repeated_single_derivatives(field):
    """Exact coefficients take one product per term (exact_derivative) and
    give the value, type and field of the per-factor reference; float ones
    are multiplied factor by factor, bit for bit."""
    p = dense_poly(9, DIFF_FIELDS[field])
    for var in (1, 2):
        for times in range(12):
            want = p
            for _ in range(times):
                want = single_diff(want, var)
            got = p.diff(var, times)
            assert stored(got) == stored(want), (var, times)
            assert [(type(c), getattr(c, "d", None)) for c in got.terms.values()] == \
                [(type(c), getattr(c, "d", None)) for c in want.terms.values()]
            assert got.degree() == max(-1, 9 - times)
            assert (exact_derivative(p.terms, var, times) is None) == (field == "float:256")


def test_a_polynomial_holding_an_mpf_multiplies_factor_by_factor():
    """One mpf coefficient among exact ones sends the whole polynomial
    through the per-factor products, bit for bit."""
    x = bigfloat(256).convert(Fraction(10**9 + 7, 3**17))
    p = Poly({(4, 3): Fraction(5, 7), (3, 3): x, (6, 1): 9, (2, 5): QuadElement(1, Fraction(1, 2), 3)})
    assert exact_derivative(p.terms, 1, 2) is None
    for var in (1, 2):
        for times in range(8):
            want = p
            for _ in range(times):
                want = single_diff(want, var)
            assert stored(p.diff(var, times)) == stored(want), (var, times)
    # QuadElements of two fields are no one exact field either
    two = Poly({(3, 0): QuadElement(0, 1, 2), (2, 0): QuadElement(0, 1, 3)})
    assert exact_derivative(two.terms, 1, 2) is None
    assert two.diff(1, 2) == Poly({(1, 0): QuadElement(0, 6, 2), (0, 0): QuadElement(0, 2, 3)})


def test_derivative_past_the_degree_is_zero():
    f = Poly({(3, 0): Fraction(1), (1, 2): Fraction(-3), (0, 0): Fraction(5)})
    assert f.diff(1, 4).terms == {} and f.diff(2, 3).terms == {}
    assert f.diff(1, 4).degree() == -1 and f.diff(1, 0) == f


def test_diff_refuses_an_unknown_variable_or_a_negative_order():
    f = Poly({(1, 1): Fraction(1)})
    for var, times in ((3, 1), (0, 1), (1, -2), (2, -1)):
        with pytest.raises(ValidationError):
            f.diff(var, times)
    assert f.diff(2, 0) is f


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
    """evaluate gives the sum of c * x1**i * x2**j in storage order, bit for
    bit on floats; every exponent occurs in several terms."""
    p = dense_poly(9, FIELDS[field])
    x1, x2 = POINTS[field]
    want = scalar_sum(p, x1, x2)
    got = p.evaluate(x1, x2)
    assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)
    assert type(got) is type(want)


# ---- exact evaluation in integers against the scalar sum (Hypothesis) -----


def assert_same_scalar(got, want):
    """Same value, type, field and printed form."""
    assert got == want
    assert type(got) is type(want)
    assert getattr(got, "d", None) == getattr(want, "d", None)
    assert format_scalar(got) == format_scalar(want)


integers_ = st.one_of(st.integers(-9, 9), st.integers(-(10**60), 10**60))
rationals_ = st.one_of(
    integers_, st.builds(Fraction, integers_, st.one_of(st.integers(1, 12), st.integers(1, 10**60)))
)


def field_values(d):
    """Scalars of one field: ints (d = 0), ints and Fractions (d = 1), or
    those and QuadElements of Q(sqrt d), rational-valued ones included."""
    if d == 0:
        return integers_
    if d == 1:
        return rationals_
    quad = st.builds(QuadElement, rationals_, st.one_of(st.just(0), rationals_), st.just(d))
    return st.one_of(rationals_, quad)


def polys(values):
    """Up to 8 terms of degree <= 10 in each variable; the empty dict is
    the zero polynomial."""
    return st.dictionaries(st.tuples(st.integers(0, 10), st.integers(0, 10)), values, max_size=8).map(Poly)


@st.composite
def poly_and_point(draw, coeff_field, point_field):
    values = field_values(point_field)
    return draw(polys(field_values(coeff_field))), draw(values), draw(values)


evaluate_settings = settings(max_examples=300, deadline=None)


@evaluate_settings
@given(st.sampled_from([0, 1, 2, 3]).flatmap(lambda d: poly_and_point(d, d)))
def test_exact_evaluation_equals_the_scalar_sum(case):
    """Integer-only, rational, Q(sqrt 2) and Q(sqrt 3) inputs, with
    negative and 60-digit coordinates and the zero polynomial: the integer
    sum has the scalar sum's value, type and field."""
    p, x1, x2 = case
    assert exact_poly_sum(p.terms, ((x1, x2),), (1,)) is not None
    assert_same_scalar(p.evaluate(x1, x2), scalar_sum(p, x1, x2))


@evaluate_settings
@given(st.sampled_from([(2, 3), (3, 2), (1, 3), (2, 1)]).flatmap(lambda f: poly_and_point(*f)))
def test_evaluation_across_two_fields_equals_the_scalar_sum(case):
    """Rational-valued QuadElements of one field with values of another give
    the scalar sum's field, and two irrational fields the same error."""
    p, x1, x2 = case
    try:
        want = scalar_sum(p, x1, x2)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            p.evaluate(x1, x2)
        return
    assert_same_scalar(p.evaluate(x1, x2), want)


def test_evaluation_across_two_fields_examples():
    half2, sqrt3 = QuadElement(Fraction(1, 2), 0, 2), QuadElement(0, 1, 3)
    p = Poly({(2, 0): half2, (0, 1): Fraction(3)})
    # sqrt(3)**2 is rational, so 1/2 * 3 stays in Q(sqrt 2); sqrt(3)**1 then moves the sum to Q(sqrt 3)
    assert_same_scalar(p.evaluate(sqrt3, sqrt3), scalar_sum(p, sqrt3, sqrt3))
    assert p.evaluate(sqrt3, sqrt3).d == 3
    assert p.evaluate(sqrt3, 1) == QuadElement(Fraction(9, 2), 0, 2) and p.evaluate(sqrt3, 1).d == 2
    with pytest.raises(ValueError, match=re.escape("cannot mix sqrt(2) and sqrt(3)")):
        Poly({(1, 0): QuadElement(0, 1, 2)}).evaluate(sqrt3, 1)


def test_inexact_arguments_keep_the_scalar_sum_bits():
    """mpf, Python float, numpy and Poly arguments are summed as before."""
    fl = bigfloat(256)
    p = dense_poly(7, FIELDS["Q"], seed=4)
    pf = p.map_coeffs(fl.lift)
    x1, x2 = fl.convert(Fraction(-2, 3)), fl.convert(Fraction(7, 5))
    for poly, a, b in ((pf, x1, x2), (p, x1, x2), (p, 0.3, -1.7), (p, Fraction(1, 3), 2.5)):
        got, want = poly.evaluate(a, b), scalar_sum(poly, a, b)
        assert type(got) is type(want) and getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)
    pn = p.map_coeffs(float)
    a, b = np.linspace(-2.0, 2.0, 17), np.linspace(0.5, 3.0, 17)
    assert pn.evaluate(a, b).tobytes() == scalar_sum(pn, a, b).tobytes()
    u, v = Poly.x1() + Poly.const(Fraction(1, 2)), Poly.x2() - Poly.x1()
    assert p.evaluate(u, v) == scalar_sum(p, u, v)
    # a zero polynomial is the int 0 at any point
    assert Poly.zero().evaluate(x1, x2) == 0 and type(Poly.zero().evaluate(x1, x2)) is int
