"""Exit-time moment polynomials and exit-position moments."""

import logging
import random
import re
from fractions import Fraction

import pytest

from conewalk import (
    AngleOutOfRange,
    DegreeTooHigh,
    MomentNotFinite,
    Poly,
    QuadElement,
    ValidationError,
    WalkSpec,
    bigfloat,
    cone_from_slope,
    construct_harmonic,
    diagonal_walk,
    drift_expansion,
    exit_position_moments,
    first_moment_poly,
    im_power,
    make_cone,
    poisson_solve,
    push_moments,
    skewed_walk,
    tau_moment_poly,
)
from conewalk.scalars import RATIONAL
from conftest import make_moment_table


def test_first_moment_shape():
    rng = random.Random(9)
    for _ in range(20):
        b = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        cone = cone_from_slope(b, RATIONAL)
        g1 = first_moment_poly(cone)
        assert g1 == Poly({(1, 1): b, (0, 2): Fraction(-1)})


def test_first_moment_drift_is_minus_one():
    rng = random.Random(10)
    cone = make_cone(4)
    g1 = first_moment_poly(cone)
    for _ in range(20):
        mu = make_moment_table(order=4, rng=rng)
        assert drift_expansion(g1, mu) == Poly.const(Fraction(-1))


def test_first_moment_rejects_wide_opening():
    """Openings pi/2, pi and 3pi/4 (slope -1): E[tau] is infinite, so neither
    G_1 nor the exit-position moments exist, whichever side of the sloped
    ray the start lies on.  The message gives pi/alpha.  An opening just
    below pi/2, pi/alpha = 2 + 1.3e-10, has both, and G_1's drift is -1."""
    for cone in (make_cone(2), make_cone(1), cone_from_slope(-1, RATIONAL)):
        why = re.escape(cone.refusal(2))
        with pytest.raises(AngleOutOfRange, match=why):
            first_moment_poly(cone)
        for start in ((-3, 1), (1, 1)):
            with pytest.raises(AngleOutOfRange, match=why):
                exit_position_moments(cone, start)
    eps = Fraction(1, 10**10)
    near, far = Fraction(1, 4) - eps / 4, Fraction(1, 4) + eps / 4
    w_eps = WalkSpec([(1, 1, near), (-1, -1, near), (1, -1, far), (-1, 1, far)])
    cone, bk = w_eps.cone, w_eps.cone.backend
    assert cone.m is None and 0 < cone.p_alpha - 2 < 1e-9
    g1 = first_moment_poly(cone)
    assert bk.vanishes(drift_expansion(g1, push_moments(w_eps, 2).to(bk)) + Poly.const(1), bk.scale(g1))
    x = w_eps.map_point(1, 1)
    assert exit_position_moments(cone, x).second1 == x[0] * x[0] + g1.evaluate(*x)


def test_tau_moment_diagonal_frozen():
    """E[tau] from (sqrt(3), 1) in the pi/3 wedge is exactly 2."""
    w = diagonal_walk()
    mu = push_moments(w, 2)
    g1 = tau_moment_poly(1, w.cone, mu).G
    x = w.map_point(1, 1)
    assert g1.evaluate(*x) == 2
    # pulled back to quadrant coordinates: 2*y1*y2 at every lattice point
    for y in ((1, 1), (2, 3), (5, 1)):
        assert g1.evaluate(*w.map_point(*y)) == 2 * y[0] * y[1]


def test_moment_finiteness_thresholds():
    cone3 = diagonal_walk().cone  # p_alpha = 3
    mu = push_moments(diagonal_walk(), 4)
    with pytest.raises(MomentNotFinite):
        tau_moment_poly(2, cone3, mu)  # 2k = 4 > 3
    cone4 = make_cone(4)
    mu4 = push_moments(skewed_walk(), 4)
    with pytest.raises(MomentNotFinite):
        tau_moment_poly(2, cone4, mu4)  # 2k = 4 not < 4


def test_poisson_solver_properties():
    cone = make_cone(4)
    mu = push_moments(skewed_walk(), 3)
    f = Poly({(1, 0): Fraction(2), (0, 0): Fraction(-1)})
    F = poisson_solve(f, cone, mu, 3)
    assert drift_expansion(F, mu) == f
    assert all(j >= 1 for _, j in F.terms)
    for deg, part in F.homogeneous_parts().items():
        assert part.evaluate(Fraction(1), cone.b) == 0


def test_poisson_solve_rebuilds_the_harmonic_correction():
    # the correction is the boundary-vanishing polynomial of degree < m whose
    # drift cancels that of the classical part, so both builds agree exactly
    rng = random.Random(8)
    cases = [(m, make_moment_table(order=m, rng=rng)) for m in (3, 4, 6, 8, 12)]
    cases += [(m, push_moments(diagonal_walk(), m)) for m in (3, 6)]
    cases += [(m, push_moments(skewed_walk(), m)) for m in (4, 8)]
    for m, mu in cases:
        res = construct_harmonic(m, mu)
        f = -drift_expansion(im_power(m), mu)
        assert poisson_solve(f, res.cone, mu, m - 1) == res.correction


def test_tables_that_do_not_mix_with_the_cone_are_refused_before_any_work(monkeypatch):
    """A Q(sqrt 3) table and a float:256 table over the Q(sqrt 2) pi/8
    cone: tau_moment_poly and poisson_solve raise ValidationError naming
    both fields before any drift or boundary solve."""
    import conewalk.exits as exits

    def no_work(*args):
        raise AssertionError("worked before refusing the table")

    monkeypatch.setattr(exits, "drift_expansion", no_work)
    monkeypatch.setattr(exits, "solve_system", no_work)
    cone = make_cone(8)
    for mu, field in ((push_moments(diagonal_walk(), 4), "quad:3"),
                      (push_moments(skewed_walk(), 6).to(bigfloat()), "float:256")):
        for build in (lambda: tau_moment_poly(mu.order // 2, cone, mu),
                      lambda: poisson_solve(Poly.const(1), cone, mu, mu.order)):
            with pytest.raises(ValidationError) as err:
                build()
            assert field in str(err.value) and "quad:2" in str(err.value)


def test_poisson_degree_cap():
    cone = make_cone(4)
    mu = push_moments(skewed_walk(), 4)
    with pytest.raises(DegreeTooHigh):
        poisson_solve(Poly.const(Fraction(1)), cone, mu, 4)


def test_poisson_solve_just_below_a_resonant_degree():
    """The slope 1732050807/10^9 opens 4e-10 less than pi/3, so degree 3
    is below pi/alpha: its nearly singular boundary system solves, and F's
    drift is f exactly over Q and to the field's tolerance on float:256."""
    f = Poly({(1, 0): Fraction(2), (0, 0): Fraction(-1)})
    mu = push_moments(skewed_walk(), 3)
    F = poisson_solve(f, cone_from_slope(Fraction(1732050807, 10**9), RATIONAL), mu, 3)
    assert drift_expansion(F, mu) == f
    bk = bigfloat()
    F = poisson_solve(f.map_coeffs(bk.lift), cone_from_slope(Fraction(1732050807, 10**9), bk), mu.to(bk), 3)
    assert bk.vanishes(drift_expansion(F, mu.to(bk)) - f.map_coeffs(bk.lift), bk.scale(F))


def test_exit_position_frozen():
    """From (sqrt(3), 1) in the pi/3 wedge: means are the start, second
    moments are 3 + 2 = 5 and 1 + 2 = 3."""
    w = diagonal_walk()
    x = w.map_point(1, 1)
    ep = exit_position_moments(w.cone, x)
    assert ep.mean1 == x[0] and ep.mean2 == x[1]
    assert ep.second1 == 5
    assert ep.second2 == 3


def test_exit_position_boundary_start():
    cone = make_cone(4)
    ep = exit_position_moments(cone, (Fraction(3), Fraction(0)))
    assert ep.second1 == 9 and ep.second2 == 0


def test_exit_position_rejects_outside():
    with pytest.raises(ValidationError):
        exit_position_moments(make_cone(4), (Fraction(1), Fraction(2)))


def test_second_moment_at_pi_5():
    """G_2 exists for opening pi/5: degree 4, boundary-vanishing, divisible
    by G_1, recursion residual below 2^-128 relative."""
    from conewalk import bigfloat
    from conewalk.walks import MomentTable

    bk = bigfloat(256)
    cone = make_cone(5, bk)
    mu_exact = push_moments(skewed_walk(), 4)
    mu = MomentTable(order=4, mu={k: bk.convert(v) for k, v in mu_exact.mu.items()}, backend=bk)
    res = tau_moment_poly(2, cone, mu)
    G2 = res.G
    assert G2.degree() == 4
    scale = max(1.0, G2.max_abs_float())
    assert res.residual.max_abs_float() <= 2 ** -128 * scale
    # divisible by x2 up to float roundoff in the stored coefficients
    assert all(abs(float(c)) <= 2 ** -128 * scale for (i, j), c in G2.terms.items() if j == 0)
    with bk.workprec():
        # divisible by (b*x1 - x2): each homogeneous part of G2/x2 vanishes
        # on the sloped ray, checked by evaluation at (1, b)
        q = Poly({(i, j - 1): c for (i, j), c in G2.terms.items() if j >= 1})
        for deg, part in q.homogeneous_parts().items():
            v = part.evaluate(bk.one(), cone.b)
            assert abs(float(v)) <= 2 ** -120 * scale


def test_fresh_tables_get_their_own_moment_polys():
    """Each new moment table gets the G_2 of its own recursion, even when
    CPython hands a new table the id of a collected one."""
    rng = random.Random(12)
    cone = make_cone(8)
    g1 = first_moment_poly(cone)
    for _ in range(50):
        mu = make_moment_table(order=4, rng=rng)
        g2 = tau_moment_poly(2, cone, mu).G
        rhs = Poly.const(Fraction(-1)) - 2 * (g1 + drift_expansion(g1, mu))
        assert drift_expansion(g2, mu) == rhs


def test_degree_pass_debug_lines(caplog):
    """With debug logging on, each degree pass of the top-down solver logs
    one line; exact fields add the coefficient size, float fields do not.
    The results do not change."""
    from conewalk import bigfloat
    from conewalk.walks import MomentTable

    mu = push_moments(diagonal_walk(), 6)
    bk = bigfloat(256)
    mu4 = push_moments(skewed_walk(), 4).mu
    mu_float = MomentTable(order=4, mu={k: bk.convert(v) for k, v in mu4.items()}, backend=bk)
    cone5 = make_cone(5, bk)
    quiet = construct_harmonic(6, mu).h, tau_moment_poly(2, cone5, mu_float).G
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="conewalk.exits"):
        loud = construct_harmonic(6, mu).h, tau_moment_poly(2, cone5, mu_float).G
    assert loud == quiet
    lines = [r.getMessage() for r in caplog.records]
    assert [line.split(" pass:")[0] for line in lines] == [f"degree {l}" for l in (5, 4, 3, 2, 4, 3, 2)]
    exact, floats = lines[:4], lines[4:]
    assert "4 pass: 3 nonzero rhs terms, solved in " in exact[1] and exact[1].endswith(" bits")
    assert "5 pass: 0 nonzero rhs terms, skipped in " in exact[0] and exact[0].endswith(" s")
    assert all(" solved in " in line and line.endswith(" s") for line in floats)
