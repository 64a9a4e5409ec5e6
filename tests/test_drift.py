"""Symbolic one-step expectation operator against the finite-sum oracle."""

import random
from fractions import Fraction

from conewalk import (
    Poly,
    WalkSpec,
    construct_harmonic,
    diagonal_walk,
    drift_expansion,
    format_scalar,
    one_step_residual,
    push_moments,
    simple_walk,
    skewed_walk,
)
from conftest import W_A, make_moment_table, scalar_sum


def test_quadratic_reduces_to_half_laplacian():
    mu = make_moment_table(order=4, rng=random.Random(3))
    f = Poly({(2, 0): Fraction(1), (0, 2): Fraction(5), (1, 1): Fraction(-2)})
    assert drift_expansion(f, mu) == Poly.const(Fraction(6))  # (2 + 10)/2


def test_expansion_matches_finite_sum():
    rng = random.Random(7)
    for w in (simple_walk(), diagonal_walk(), skewed_walk()):
        mu = push_moments(w, 5)
        f = Poly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            }
        ) + Poly({(2, 3): Fraction(1)})
        g = drift_expansion(f, mu)
        for _ in range(10):
            y = (rng.randint(1, 9), rng.randint(1, 9))
            x1, x2 = w.map_point(*y)
            assert g.evaluate(x1, x2) == one_step_residual(f, w, y)


def test_drift_lowers_degree_by_two():
    mu = push_moments(skewed_walk(), 6)
    f = Poly({(3, 3): Fraction(1)})
    assert drift_expansion(f, mu).degree() <= 4


def reference_residual(h, w, y):
    """sum_atoms p * h(T(y+dy)) - h(T y), each value a scalar sum."""
    y1, y2 = y
    acc = -scalar_sum(h, *w.map_point(y1, y2))
    for a, b, p in w.atoms:
        acc = acc + p * scalar_sum(h, *w.map_point(y1 + a, y2 + b))
    return acc


def test_one_step_residual_of_a_float_h_on_an_exact_walk():
    """The pi/8 h over the diagonal walk's Q(sqrt 3) moments is float:256
    (tan(pi/8) lies in Q(sqrt 2)); the residual is taken in h's float field,
    where it vanishes to its tolerance."""
    w = diagonal_walk()
    res = construct_harmonic(8, push_moments(w, 8))
    bk = res.cone.backend
    assert bk.name == "float:256" and w.cone.backend.exact
    for y in ((1, 1), (7, 3), (20, 41)):
        r = one_step_residual(res.h, w, y)
        assert r.context.prec == 256 and bk.is_zero(r), (y, r)


def test_one_step_residual_equals_the_finite_sum():
    """The integer sum over h's coefficients, the lattice images and the atom
    probabilities has the scalar finite sum's value, type and field: on Q
    (skewed), Q(sqrt 2) images (simple), Q(sqrt 3) (diagonal) and, bit for
    bit, on W_A's float:256 field; for harmonic h, h plus a non-harmonic
    term, and the zero polynomial."""
    rng = random.Random(11)
    for w in (simple_walk(), diagonal_walk(), skewed_walk(), WalkSpec(W_A)):
        m = w.cone.m
        h = construct_harmonic(m, push_moments(w, max(m, 2))).h
        bump = Poly({(2, 1): w.cone.backend.lift(Fraction(3, 7))})
        for f in (h, h + bump, Poly.zero()):
            for _ in range(4):
                y = (rng.randint(1, 60), rng.randint(-5, 60))
                got, want = one_step_residual(f, w, y), reference_residual(f, w, y)
                assert type(got) is type(want)
                assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want)
                assert getattr(got, "d", None) == getattr(want, "d", None)
                assert format_scalar(got) == format_scalar(want)
