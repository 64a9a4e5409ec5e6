"""The exact-versus-float decisions that Backend owns: zero tests, scales,
operand lifting and moment-table conversion."""

from fractions import Fraction

import mpmath
import pytest

from conewalk import (
    MomentTable,
    QuadElement,
    RATIONAL,
    ValidationError,
    bigfloat,
    build_harmonic_alt,
    build_matrix,
    construct_harmonic,
    diagonal_walk,
    exit_position_moments,
    format_scalar,
    im_power,
    make_cone,
    push_moments,
    quadratic,
    skewed_walk,
    solve_system,
    solve_system_recursive,
    tau_moment_poly,
)


def test_exact_builds_make_no_float_conversions(monkeypatch):
    mu = push_moments(skewed_walk(), 8)  # rational table
    diag = push_moments(diagonal_walk(), 4)  # Q(sqrt(3)) table
    cone3, cone8, cone12 = make_cone(3), make_cone(8), make_cone(12)
    mat = build_matrix(9, cone12)
    rhs = [Fraction(i - 3, i + 1) for i in range(8)] + [Fraction(0)] * 2

    def run():
        return (
            construct_harmonic(8, mu),
            tau_moment_poly(3, cone8, mu),
            build_harmonic_alt(6, mu),
            solve_system(mat, rhs),
            solve_system_recursive(mat, rhs),
            MomentTable(order=diag.order, mu=dict(diag.mu), backend=diag.backend),
            exit_position_moments(cone3, (1, 1)),
        )

    want = run()

    def no_float(self):
        raise AssertionError(f"float() of exact scalar {self!r}")

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__float__", no_float)
        mp.setattr(QuadElement, "__float__", no_float)
        got = run()
    assert got == want
    assert repr(got) == repr(want)


def test_exact_scale_reads_no_value():
    def unreadable():
        raise AssertionError("exact scale read a value")
        yield

    assert RATIONAL.scale(unreadable()) == 1
    assert quadratic(3).scale(unreadable(), unreadable()) == 1


def test_float_scale_is_largest_magnitude_at_least_one():
    bk = bigfloat(128)
    assert bk.scale() == 1.0
    assert bk.scale([Fraction(1, 4)]) == 1.0
    assert bk.scale(im_power(5), [Fraction(-30)]) == 30.0  # im_power(5) peaks at 10
    huge = bk.mp.mpf("-1e400")  # beyond the float64 range, where float() is -inf
    assert bk.scale([Fraction(1, 4), huge]) == -huge


def test_lift_is_identity_on_exact_fields():
    three = Fraction(3)
    assert quadratic(2).lift(three) is three
    assert format_scalar(quadratic(2).lift(three)) == "3"  # convert would give 3+0*sqrt(2)
    assert RATIONAL.lift(three) is three
    v = bigfloat(64).lift(Fraction(1, 3))
    assert v.context is bigfloat(64).mp  # the field's own context, at 64 bits
    with mpmath.workprec(64):
        assert v == mpmath.mpf(1) / 3


def test_is_zero_and_vanishes():
    bk = bigfloat(64)
    assert not RATIONAL.is_zero(Fraction(1, 10**40))
    assert bk.is_zero(bk.convert(Fraction(1, 10**40)))
    assert not bk.is_zero(bk.convert(Fraction(1, 10**8)))
    assert bk.is_zero(bk.convert(Fraction(1, 10**8)), scale=10**4)
    assert RATIONAL.vanishes([]) and RATIONAL.vanishes([Fraction(0), 0])
    assert not quadratic(2).vanishes([0, QuadElement(0, 1, 2)])


def test_moment_table_to():
    mu = push_moments(diagonal_walk(), 4)
    assert mu.to(RATIONAL) is mu and mu.to(quadratic(3)) is mu
    bk = bigfloat(128)
    mu_f = mu.to(bk)
    assert mu_f.backend is bk and mu_f.order == mu.order
    assert all(mu_f.mu[k] == bk.convert(v) for k, v in mu.mu.items())
    assert mu_f.to(bigfloat(128)) is mu_f  # same float field: no conversion
    with pytest.raises(ValidationError):  # a float table does not go back into Q
        mu_f.to(RATIONAL)
    mu_g = mu_f.to(bigfloat(256))
    assert mu_g is not mu_f and mu_g.backend.name == "float:256"
