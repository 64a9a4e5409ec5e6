"""The harmonic-polynomial builder, uniqueness guard, and resonance
classification."""

import random
from fractions import Fraction

import pytest

from conewalk import (
    InsufficientMoments,
    Poly,
    QuadElement,
    ValidationError,
    check_low_degree_uniqueness,
    cone_from_slope,
    construct_harmonic,
    converse_angle_test,
    drift_expansion,
    im_power,
    make_cone,
    one_step_residual,
    push_moments,
    simple_walk,
    skewed_walk,
    vanishes_on_boundary,
)
from conftest import make_moment_table


def test_m2_is_classical():
    res = construct_harmonic(2, push_moments(simple_walk(), 2))
    assert res.h == Poly({(1, 1): Fraction(2)})
    assert res.correction.is_zero() and res.boundary_ok


def test_m4_skewed_exact():
    w = skewed_walk()
    res = construct_harmonic(4, push_moments(w, 4))
    assert res.residual.is_zero()
    assert res.boundary_ok
    assert not res.correction.is_zero()
    assert res.correction.degree() <= 3
    # frozen regression value at the transformed start (1,1) -> (4,2)
    assert res.h.evaluate(Fraction(4), Fraction(2)) == 120


def test_m4_one_step_oracle():
    w = skewed_walk()
    h = construct_harmonic(4, push_moments(w, 4)).h
    rng = random.Random(2)
    for _ in range(50):
        y = (rng.randint(1, 40), rng.randint(1, 40))
        assert one_step_residual(h, w, y) == 0


def test_m3_generic_closed_form():
    """With generic third moments the degree-2 correction is
    B*x2^2 + C*x1*x2 with B = -3 mu(2,1) + mu(0,3) and C = -sqrt(3)*B."""
    from conewalk import quadratic

    bk = quadratic(3)
    m21, m03 = Fraction(1, 7), Fraction(1, 13)
    mu = make_moment_table(
        order=3,
        backend=bk,
        higher={(2, 1): m21, (0, 3): m03, (3, 0): Fraction(1, 5), (1, 2): Fraction(-1, 11)},
    )
    res = construct_harmonic(3, mu)
    B = -3 * m21 + m03
    assert res.correction.coeff(2, 0) == 0
    assert res.correction.coeff(0, 2) == B
    assert res.correction.coeff(1, 1) == QuadElement(0, -B, 3)
    assert res.residual.is_zero() and res.boundary_ok


def test_correction_linear_in_moments():
    """The correction coefficients are linear in the higher moments."""
    base = {(2, 1): Fraction(1, 3), (0, 3): Fraction(1, 5)}
    double = {k: 2 * v for k, v in base.items()}
    from conewalk import quadratic

    bk = quadratic(3)
    c1 = construct_harmonic(3, make_moment_table(3, bk, base)).correction
    c2 = construct_harmonic(3, make_moment_table(3, bk, double)).correction
    assert c2 == c1.map_coeffs(lambda v: 2 * v)


def test_insufficient_moments():
    with pytest.raises(InsufficientMoments):
        construct_harmonic(4, push_moments(simple_walk(), 3))


def test_uniqueness_guard():
    mu = push_moments(skewed_walk(), 4)
    assert check_low_degree_uniqueness(4, mu, Poly.zero())
    with pytest.raises(ValidationError):
        check_low_degree_uniqueness(4, mu, Poly({(1, 0): Fraction(1)}))  # not on boundary


def test_vanishes_on_boundary():
    cone = construct_harmonic(4, push_moments(skewed_walk(), 4)).cone
    assert vanishes_on_boundary(im_power(4), cone)
    assert not vanishes_on_boundary(Poly({(2, 0): Fraction(1)}), cone)
    # the pi/2 wedge: evaluated at its ray (0, 1), with no branch of its own
    quadrant = make_cone(2)
    assert vanishes_on_boundary(Poly({(1, 1): Fraction(1)}), quadrant)
    assert not vanishes_on_boundary(Poly({(0, 3): Fraction(1)}), quadrant)


def test_converse_angle_classification():
    # b = 1: resonant at every degree n = 4q with tan(q pi / n) = 1
    cone = make_cone(4)
    cls = converse_angle_test(4, cone)
    assert cls.resonant and cls.q == 1 and cls.kernel_positive
    cls = converse_angle_test(8, cone)
    assert cls.resonant and cls.q == 2 and not cls.kernel_positive
    cls = converse_angle_test(5, cone)
    assert not cls.resonant
    cls = converse_angle_test(4, make_cone(2))
    assert cls.resonant and cls.q == 2
    cls = converse_angle_test(3, make_cone(2))
    assert not cls.resonant


def test_the_quadrant_is_resonant_exactly_at_even_degrees():
    """The pi/2 wedge's ray (0, 1) goes through the generic test: Im(i^n)
    vanishes exactly for even n, and the opening is then (n/2) pi/n."""
    cone = make_cone(2)
    for n in range(2, 10):
        cls = converse_angle_test(n, cone)
        assert cls.resonant == (n % 2 == 0), n
        assert cls.q == (n // 2 if n % 2 == 0 else None), n
        assert cls.kernel_positive == ((n == 2) if n % 2 == 0 else None), n


def test_converse_angle_test_keeps_the_slope_precision():
    import mpmath

    from conewalk import bigfloat

    bk = bigfloat(256)
    b = bk.tan_pi_over(7)
    with bk.workprec():
        near = b + mpmath.mpf("1e-12")
    assert mpmath.mp.prec == 53  # classified at the global precision
    assert converse_angle_test(7, cone_from_slope(near, bigfloat())).label() == "nonresonant"
    assert converse_angle_test(7, cone_from_slope(b, bigfloat())).label() == "resonant q=1"
    # a cone is tested in its own field: a 64-bit tan(pi/3) is resonant there
    assert converse_angle_test(3, make_cone(3, bigfloat(64))).label() == "resonant q=1"


def test_float_backend_build():
    from conewalk import bigfloat
    from conewalk.walks import MomentTable

    bk = bigfloat(256)
    mu_exact = push_moments(skewed_walk(), 5)
    mu = MomentTable(
        order=5, mu={k: bk.convert(v) for k, v in mu_exact.mu.items()}, backend=bk
    )
    res = construct_harmonic(5, mu)
    assert res.boundary_ok
    with bk.workprec():
        assert res.residual.max_abs_float() < 2 ** -128 * max(1.0, res.h.max_abs_float())
