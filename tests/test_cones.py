"""Wedge construction and exact boundary slopes."""

import math
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
    diagonal_walk,
    exit_position_moments,
    first_moment_poly,
    kernel_dimension,
    make_cone,
    push_moments,
    quadratic,
)
from conewalk.cones import RESONANCE_GUARD


def test_exact_slopes():
    assert make_cone(4).b == Fraction(1)
    assert make_cone(3).b == QuadElement(0, 1, 3)
    assert make_cone(6).b == QuadElement(0, Fraction(1, 3), 3)
    assert make_cone(8).b == QuadElement(-1, 1, 2)
    assert make_cone(12).b == QuadElement(2, -1, 3)
    for m in (3, 4, 6, 8, 12):
        cone = make_cone(m)
        assert abs(cone.b_float() - math.tan(math.pi / m)) < 1e-14


def test_vertical_and_half_plane():
    c2 = make_cone(2)
    assert c2.ray == (0, 1) and c2.p_alpha == Fraction(2)
    # the ray holds the field's own one() and zero(), never Python ints
    assert [type(v) for v in c2.ray + make_cone(3).ray] == [Fraction] * 2 + [QuadElement] * 2
    for slope in (lambda: c2.b, c2.b_float):
        with pytest.raises(ValidationError, match="no finite slope"):
            slope()
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
    """Exact at an exact pi/alpha; a float pi/alpha must clear the degree by
    RESONANCE_GUARD, so a wedge 1e-12 wider than pi/2 has no E[tau]."""
    for m in (1, 2, 3, 4, 5, 8):
        cone = make_cone(m)
        assert [n for n in range(10) if cone.admits(n)] == list(range(m))
    assert not cone_from_slope(Fraction(-1), RATIONAL).admits(2)  # opening 3pi/4
    near_right = cone_from_slope(10**12)
    assert near_right.m is None and 0 < float(near_right.p_alpha) - 2 < RESONANCE_GUARD
    assert near_right.admits(1) and not near_right.admits(2)


def test_refusal_prints_pi_over_alpha_apart_from_the_degree():
    assert make_cone(3).refusal(4) == "pi/alpha = 3 <= 4"
    assert make_cone(2).refusal(2) == "pi/alpha = 2 <= 2"
    near_right = cone_from_slope(10**12)
    assert near_right.refusal(2).startswith("pi/alpha = 2 + 1.3e-12 is within the guard band")
    wide = cone_from_slope(Fraction(3, 2))  # pi/alpha = 3.19...
    assert wide.refusal(4) == f"pi/alpha = {float(wide.p_alpha)!r} <= 4"


def test_float_fallback():
    cone = make_cone(5)
    assert cone.backend.name.startswith("float")
    assert abs(cone.b_float() - math.tan(math.pi / 5)) < 1e-30


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
    assert abs(float(cone.p_alpha) - math.pi / math.atan(2 / 3)) < 1e-12


def test_obtuse_slope():
    # negative slope means an opening beyond pi/2
    cone = cone_from_slope(Fraction(-1), RATIONAL)
    assert abs(cone.alpha_float() - 3 * math.pi / 4) < 1e-12


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
    assert abs(float(cone.p_alpha) - 3) < 1e-15
    exact = cone_from_slope(field.tan_pi_over(3))
    assert exact.m == 3 and exact.p_alpha == 3
    assert kernel_dimension(build_matrix(3, exact))[0] == 1
    assert cone_from_slope(math.sqrt(3), bigfloat(32)).m == 3
    assert cone_from_slope(QuadElement(0, 1, 3), quadratic(3)).m == 3
    with pytest.raises(ValidationError):
        cone_from_slope(field.mp.mpf(1.5), RATIONAL)


def test_a_tiny_slope_is_a_narrow_wedge():
    """The opening is computed once, in the slope's float field.  A slope
    that underflows a 53-bit float gives a wedge of about that opening, not
    the half-plane that its float64 image 0.0 gave."""
    cone = cone_from_slope(bigfloat().mp.mpf("1e-400"))
    assert cone.m is None and cone.p_alpha > 10**400 and cone.admits(10**6)
