"""The trigonometric-series construction and its agreement with the
boundary-system builder."""

import math
from fractions import Fraction

import pytest

from conewalk import (
    Poly,
    ResonantDegree,
    build_harmonic_alt,
    construct_harmonic,
    diagonal_walk,
    eliminate_monomial,
    laplacian,
    push_moments,
    simple_walk,
    skewed_walk,
)
from conewalk.alt import fourier_profile, particular_solution, polar_mode, trig_series


def test_trig_series_frozen():
    # cos^2 = 1/2 + cos(2b)/2
    a, s = trig_series(2, 0)
    assert a[0] == Fraction(1, 2) and a[2] == Fraction(1, 2)
    assert all(v == 0 for v in s)
    # sin^2 = 1/2 - cos(2b)/2
    a, s = trig_series(0, 2)
    assert a[0] == Fraction(1, 2) and a[2] == Fraction(-1, 2)
    # cos*sin = sin(2b)/2
    a, s = trig_series(1, 1)
    assert s[2] == Fraction(1, 2) and all(v == 0 for v in a)
    # sin^3 = 3/4 sin(b) - 1/4 sin(3b)
    a, s = trig_series(0, 3)
    assert s[1] == Fraction(3, 4) and s[3] == Fraction(-1, 4)


def test_trig_series_numeric():
    for j, k in ((2, 1), (0, 4), (3, 2), (1, 3)):
        a, s = trig_series(j, k)
        for t in (0.3, 1.1, 2.7):
            lhs = math.cos(t) ** j * math.sin(t) ** k
            rhs = sum(float(a[l]) * math.cos(l * t) + float(s[l]) * math.sin(l * t)
                      for l in range(j + k + 1))
            assert abs(lhs - rhs) < 1e-12


def test_polar_mode_is_polynomial_identity():
    for total, l, kind in ((4, 2, "cos"), (5, 3, "sin"), (6, 0, "cos")):
        p = polar_mode(total, l, kind)
        for t in (0.4, 1.0):
            r = 1.7
            x1, x2 = r * math.cos(t), r * math.sin(t)
            f = math.cos(l * t) if kind == "cos" else math.sin(l * t)
            assert abs(p.evaluate(x1, x2) - r**total * f) < 1e-10


def test_particular_solution_laplacian():
    for j, k in ((0, 0), (1, 0), (2, 1), (0, 3), (2, 2)):
        F = particular_solution(j, k)
        assert laplacian(F) == Poly({(j, k): Fraction(1)})


def test_fourier_profile_parity():
    prof = fourier_profile(2, 1)
    assert prof.parity == 1
    assert all(prof.kappa[l] == 0 and prof.mu_s[l] == 0
               for l in range(prof.n + 1) if l % 2 == 0)


def test_eliminate_monomial_contract():
    f, g, F = eliminate_monomial(1, 0, 4)
    assert F == f + g
    assert laplacian(F) == Poly({(1, 0): Fraction(1)})
    assert laplacian(g).is_zero()
    cone = construct_harmonic(4, push_moments(skewed_walk(), 4)).cone
    # vanishes on both rays
    for deg, part in F.homogeneous_parts().items():
        assert part.coeff(deg, 0) == 0
        assert part.evaluate(Fraction(1), cone.b) == 0


def test_eliminate_resonant_degree():
    with pytest.raises(ResonantDegree):
        eliminate_monomial(1, 1, 4)  # degree 4 correction at m = 4


def test_alt_agrees_exact():
    for m, w in ((2, simple_walk()), (3, diagonal_walk()), (4, skewed_walk())):
        mu = push_moments(w, max(m, 2))
        assert build_harmonic_alt(m, mu) == construct_harmonic(m, mu).h


def test_alt_lifts_a_quadratic_table_into_the_float_cone():
    mu = push_moments(simple_walk(), 5)  # Q(sqrt(2)) moments, float pi/5 slope
    res = construct_harmonic(5, mu)
    h = build_harmonic_alt(5, mu)
    bk = res.cone.backend
    with bk.workprec():
        diff = (res.h - h).max_abs_float()
        scale = max(1.0, res.h.max_abs_float())
    assert res.boundary_ok and diff <= 2 ** -128 * scale


def test_alt_agrees_float():
    from conewalk import bigfloat
    from conewalk.walks import MomentTable

    bk = bigfloat(256)
    mu_exact = push_moments(diagonal_walk(), 7)
    mu = MomentTable(order=7, mu={k: bk.convert(v) for k, v in mu_exact.mu.items()}, backend=bk)
    for m in (5, 6, 7):
        h1 = construct_harmonic(m, mu).h
        h2 = build_harmonic_alt(m, mu)
        with bk.workprec():
            diff = (h1 - h2).max_abs_float()
            scale = max(1.0, h1.max_abs_float())
        assert diff <= 2 ** -128 * scale
