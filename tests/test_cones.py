"""Wedge construction and exact boundary slopes."""

import math
import random
from fractions import Fraction

import pytest

from conewalk import (
    AngleNotRepresentable,
    AngleOutOfRange,
    QuadElement,
    RATIONAL,
    ValidationError,
    bigfloat,
    build_matrix,
    cone_from_slope,
    construct_harmonic,
    converse_angle_test,
    diagonal_walk,
    exit_position_moments,
    first_moment_poly,
    kernel_dimension,
    make_cone,
    push_moments,
    quadratic,
)


def test_exact_slopes():
    assert make_cone(4).b == Fraction(1)
    assert make_cone(3).b == QuadElement(0, 1, 3)
    assert make_cone(6).b == QuadElement(0, Fraction(1, 3), 3)
    assert make_cone(8).b == QuadElement(-1, 1, 2)
    assert make_cone(12).b == QuadElement(2, -1, 3)
    for m in (3, 4, 6, 8, 12):
        cone = make_cone(m)
        assert abs(float(cone.b) - math.tan(math.pi / m)) < 1e-14


def test_vertical_and_half_plane():
    c2 = make_cone(2)
    assert c2.ray == (0, 1) and c2.p_alpha == 2.0 and type(c2.p_alpha) is float
    # the ray holds the field's own one() and zero(), never Python ints
    assert [type(v) for v in c2.ray + make_cone(3).ray] == [Fraction] * 2 + [QuadElement] * 2
    with pytest.raises(ValidationError, match="no finite slope"):
        c2.b
    c1 = make_cone(1)
    assert c1.m == 1 and c1.b == Fraction(0)


def test_zero_slope_is_the_half_plane():
    """The slope 0 opens pi, as make_cone(1) does: no finite exit time."""
    for cone in (cone_from_slope(Fraction(0), RATIONAL), make_cone(1)):
        assert cone.m == 1
        with pytest.raises(AngleOutOfRange):
            first_moment_poly(cone)
        with pytest.raises(AngleOutOfRange):
            exit_position_moments(cone, (1, 1))
    assert not make_cone(2).admits(2) and make_cone(3).admits(2)


def test_admits_is_degree_below_pi_over_alpha():
    """Exact while pi/alpha is below about 2^250: a wedge 1e-12 narrower
    than pi/2 has a finite E[tau], and one 4e-10 narrower than pi/3 a
    finite degree-3 moment, over Q and on float:256.  Beyond that a degree
    within the rounding of pi/alpha is refused, not guessed."""
    for m in (1, 2, 3, 4, 5, 8):
        cone = make_cone(m)
        assert [n for n in range(10) if cone.admits(n)] == list(range(m))
    assert not cone_from_slope(Fraction(-1), RATIONAL).admits(2)  # opening 3pi/4
    for backend in (RATIONAL, bigfloat()):
        near_right = cone_from_slope(10**12, backend)
        assert near_right.m is None and 0 < near_right.p_alpha - 2 < 1e-11
        assert near_right.admits(2) and not near_right.admits(3)
        near_third = cone_from_slope(Fraction(1732050807, 10**9), backend)
        assert near_third.m is None and 0 < near_third.p_alpha - 3 < 1e-9
        assert near_third.admits(3) and not near_third.admits(4)
    thin = cone_from_slope(Fraction(1, 10**80), RATIONAL)  # pi/alpha = 3.14...e80
    assert thin.m is None and thin.admits(10**80) and not thin.admits(4 * 10**80)
    with pytest.raises(ValidationError, match="within"):
        thin.admits(int(bigfloat().mp.pi * 10**80))


def test_refusal_prints_pi_over_alpha_apart_from_the_degree():
    assert make_cone(3).refusal(4) == "pi/alpha = 3 <= 4"
    assert make_cone(2).refusal(2) == "pi/alpha = 2 <= 2"
    assert cone_from_slope(Fraction(-1), RATIONAL).refusal(2) == "pi/alpha = 1.3333333333333333 <= 2"
    wide = cone_from_slope(Fraction(3, 2))  # pi/alpha = 3.19...
    assert wide.refusal(4) == f"pi/alpha = {wide.p_alpha!r} <= 4"


def test_float_fallback():
    cone = make_cone(5)
    assert cone.backend.name.startswith("float")
    assert abs(float(cone.b) - math.tan(math.pi / 5)) < 1e-30
    mp = cone.backend.mp
    assert abs(cone.b - mp.tan(mp.pi / 5)) < mp.mpf(2) ** -250


def test_unrepresentable_angle():
    with pytest.raises(AngleNotRepresentable):
        make_cone(5, RATIONAL)
    with pytest.raises(AngleNotRepresentable):
        make_cone(3, quadratic(2))


def test_cone_from_slope():
    cone = cone_from_slope(Fraction(1), RATIONAL)
    assert cone.m == 4
    cone = cone_from_slope(Fraction(2, 3), RATIONAL)
    assert cone.m is None
    assert abs(cone.p_alpha - math.pi / math.atan(2 / 3)) < 1e-12


def test_obtuse_slope():
    # negative slope means an opening beyond pi/2
    cone = cone_from_slope(Fraction(-1), RATIONAL)
    assert cone.m is None and abs(math.pi / cone.p_alpha - 3 * math.pi / 4) < 1e-12


def test_invalid_m():
    with pytest.raises(ValidationError):
        make_cone(0)


def test_cone_for_a_table_of_another_quadratic_field():
    """Q(sqrt 3) moments and the Q(sqrt 2) slope tan(pi/8) meet in float:256."""
    res = construct_harmonic(8, push_moments(diagonal_walk(), 8))
    assert res.cone.backend.name == "float:256" and res.cone.m == 8
    assert res.boundary_ok
    assert construct_harmonic(3, push_moments(diagonal_walk(), 8)).cone.backend == quadratic(3)


def test_float_slope_is_taken_into_the_field():
    """A 53-bit sqrt(3) is not tan(pi/3) at 256 bits, so the cone is a
    general one with no kernel at degree 3; at 32 bits it is pi/3."""
    field = bigfloat()
    cone = cone_from_slope(math.sqrt(3))
    assert cone.m is None and cone.b.context is field.mp and cone.b == math.sqrt(3)
    assert kernel_dimension(build_matrix(3, cone))[0] == 0
    assert abs(cone.p_alpha - 3) < 1e-15
    exact = cone_from_slope(field.tan_pi_over(3))
    assert exact.m == 3 and exact.p_alpha == 3
    assert kernel_dimension(build_matrix(3, exact))[0] == 1
    assert cone_from_slope(math.sqrt(3), bigfloat(32)).m == 3
    assert cone_from_slope(QuadElement(0, 1, 3), quadratic(3)).m == 3
    with pytest.raises(ValidationError):
        cone_from_slope(field.mp.mpf(1.5), RATIONAL)


def test_a_tiny_slope_is_a_narrow_wedge():
    """The opening is computed in the slope's float field.  A slope that
    underflows a 53-bit float gives a wedge of about that opening, not the
    half-plane that its float64 image 0.0 gave.  pi/alpha = 3e400 is the
    nearest integer's candidate for pi/m, but Im(z^(m-1)) is zero in
    float:256 too, so the wedge stays general."""
    cone = cone_from_slope(bigfloat().mp.mpf("1e-400"))
    assert cone.m is None and cone.p_alpha == math.inf and cone.admits(10**6)


def _im_signs(cone, n):
    """Im(z^k), k = 1..n, for z = c + i s the second ray pointed into the
    upper half plane, each by one more multiplication in the cone's field:
    1, 0 (the field's zero test, relative to max(1, |c|, |s|)^k) or -1."""
    bk = cone.backend
    c, s = cone.ray
    if s < 0:
        c, s = -c, -s
    re, im, signs = bk.one(), bk.zero(), []
    for k in range(1, n + 1):
        re, im = re * c - im * s, re * s + im * c
        signs.append(0 if bk.is_zero(im, bk.scale([c**k, s**k])) else (1 if im > 0 else -1))
    return signs


def test_the_angle_rule_is_the_sign_sequence_of_the_ray_powers():
    """admits(n) holds exactly when Im(z^k) > 0 for k = 1..n, and
    converse_angle_test calls n resonant exactly when Im(z^n) is zero, for
    random rational slopes over Q and on float:256."""
    rng = random.Random(33)
    slopes = [Fraction(rng.randint(-400, 400), rng.randint(1, 60)) for _ in range(300)]
    for backend in (RATIONAL, bigfloat()):
        for b in slopes:
            cone = cone_from_slope(b, backend)
            signs = _im_signs(cone, 30)
            for n in range(1, 31):
                assert cone.admits(n) == all(v > 0 for v in signs[:n]), (b, backend, n)
                if n >= 2:
                    assert converse_angle_test(n, cone).resonant == (signs[n - 1] == 0), (b, backend, n)


def test_a_pi_over_m_slope_is_recognised_for_every_m():
    """tan(pi/m) opens pi/m in its field for every m, not only m <= 64."""
    cones = [make_cone(m, bigfloat()) for m in range(3, 201)] + [make_cone(m) for m in (3, 4, 6, 8, 12)]
    for cone in cones:
        assert cone_from_slope(cone.b, cone.backend) == cone, cone.m
    assert cone_from_slope(bigfloat().tan_pi_over(10**6)).m == 10**6
