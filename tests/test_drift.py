"""Symbolic one-step expectation operator against the finite-sum oracle."""

import random
from fractions import Fraction

from conewalk import (
    Poly,
    diagonal_walk,
    drift_expansion,
    one_step_residual,
    push_moments,
    simple_walk,
    skewed_walk,
)
from conftest import make_moment_table


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
