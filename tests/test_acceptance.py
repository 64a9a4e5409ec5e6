"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test is self-contained and states its frozen expected values inline;
a failure here means the package no longer honors its contract.
"""

import math
import random
from fractions import Fraction

import pytest

from conewalk import (
    ConeSpec,
    MomentTable,
    Poly,
    QuadElement,
    RATIONAL,
    SimConfig,
    bigfloat,
    build_harmonic_alt,
    build_matrix,
    cone_from_slope,
    construct_harmonic,
    diagonal_walk,
    drift_expansion,
    exit_position_moments,
    first_moment_poly,
    im_power,
    make_cone,
    one_step_residual,
    pivot_identity_residual,
    push_moments,
    quadratic,
    sample_exit,
    self_test,
    simple_walk,
    skewed_walk,
    tau_moment_poly,
)
from conewalk.linsys import kernel_dimension
from conftest import make_moment_table

SQ2 = quadratic(2)
SQ3 = quadratic(3)

# every exactly representable slope tan(q*pi/d) in the supported fields,
# keyed by the reduced fraction q/d; "vertical" marks q/d = 1/2
EXACT_TAN_TABLE = {
    (1, 4): (RATIONAL, Fraction(1)),
    (3, 4): (RATIONAL, Fraction(-1)),
    (1, 3): (SQ3, QuadElement(0, 1, 3)),
    (2, 3): (SQ3, QuadElement(0, -1, 3)),
    (1, 6): (SQ3, QuadElement(0, Fraction(1, 3), 3)),
    (5, 6): (SQ3, QuadElement(0, Fraction(-1, 3), 3)),
    (1, 8): (SQ2, QuadElement(-1, 1, 2)),
    (3, 8): (SQ2, QuadElement(1, 1, 2)),
    (5, 8): (SQ2, QuadElement(-1, -1, 2)),
    (7, 8): (SQ2, QuadElement(1, -1, 2)),
    (1, 12): (SQ3, QuadElement(2, -1, 3)),
    (5, 12): (SQ3, QuadElement(2, 1, 3)),
    (7, 12): (SQ3, QuadElement(-2, -1, 3)),
    (11, 12): (SQ3, QuadElement(-2, 1, 3)),
}


def slope_cone(backend, b):
    return ConeSpec(m=None, ray=(backend.one(), b), backend=backend)


def test_c01_matrix_reproduction():
    """Frozen boundary matrices at b = 1, degrees 3 and 4, exact."""
    cone = make_cone(4)
    assert [list(r) for r in build_matrix(3, cone).rows] == [
        [3, 0, 1, 0],
        [0, 1, 0, 3],
        [1, 0, 0, 0],
        [1, 1, 1, 1],
    ]
    assert [list(r) for r in build_matrix(4, cone).rows] == [
        [6, 0, 1, 0, 0],
        [0, 3, 0, 3, 0],
        [0, 0, 1, 0, 6],
        [1, 0, 0, 0, 0],
        [1, 1, 1, 1, 1],
    ]


def test_c02_m3_closed_form():
    """Opening pi/3, generic third moments: correction is
    (-3*mu21 + mu03) * (x2^2 - sqrt(3) x1 x2), i.e. the x1^2 coefficient is
    zero, exact in the quadratic field."""
    m21, m03 = Fraction(2, 9), Fraction(-3, 5)
    mu = make_moment_table(
        order=3, backend=SQ3,
        higher={(2, 1): m21, (0, 3): m03, (3, 0): Fraction(1, 4), (1, 2): Fraction(1, 6)},
    )
    res = construct_harmonic(3, mu)
    B = -3 * m21 + m03
    assert res.correction.coeff(2, 0) == 0
    assert res.correction.coeff(0, 2) == B
    assert res.correction.coeff(1, 1) == QuadElement(0, -B, 3)
    assert res.residual.is_zero() and res.boundary_ok


def test_c03_exact_end_to_end_harmonicity():
    """m = 4 over exact rationals with a no-overshoot walk: the symbolic
    drift is the zero polynomial and the finite-sum oracle is exactly zero
    at 200 random interior lattice points."""
    w = skewed_walk()
    res = construct_harmonic(4, push_moments(w, 4))
    assert res.residual.is_zero()
    assert res.boundary_ok
    rng = random.Random(2026)
    for _ in range(200):
        y = (rng.randint(1, 100), rng.randint(1, 100))
        assert one_step_residual(res.h, w, y) == 0


def test_c04_oracle_equivalence():
    """The two independent constructions agree coefficient-for-coefficient:
    exactly for m in {2,3,4}, within 2^-128 relative at 256 bits for
    m in {5,6,7}."""
    for m, w in ((2, simple_walk()), (3, diagonal_walk()), (4, skewed_walk())):
        mu = push_moments(w, max(m, 2))
        assert build_harmonic_alt(m, mu) == construct_harmonic(m, mu).h
    bk = bigfloat(256)
    base = push_moments(diagonal_walk(), 7)
    mu = MomentTable(order=7, mu={k: bk.convert(v) for k, v in base.mu.items()}, backend=bk)
    for m in (5, 6, 7):
        h1 = construct_harmonic(m, mu).h
        h2 = build_harmonic_alt(m, mu)
        with bk.workprec():
            diff = (h1 - h2).max_abs_float()
            scale = max(1.0, h1.max_abs_float())
        assert diff <= 2 ** -128 * scale


def test_c05_kernel_dichotomy():
    """Resonant slopes tan(q*pi/n) give a one-dimensional kernel spanned by
    the classical degree-n polynomial; 50 random non-resonant rational
    slopes give a trivial kernel."""
    resonant_cases = 0
    for n in range(2, 11):
        for q in range(1, n):
            f = Fraction(q, n)
            key = (f.numerator, f.denominator)
            if key == (1, 2):
                cone = make_cone(2)  # vertical boundary ray
            elif key in EXACT_TAN_TABLE:
                cone = slope_cone(*EXACT_TAN_TABLE[key])
            else:
                continue
            dim, basis = kernel_dimension(build_matrix(n, cone))
            assert dim == 1, (n, q)
            u = im_power(n).power_basis_coeffs(n)
            v = basis[0]
            k0 = next(i for i, c in enumerate(u) if c != 0)
            s = v[k0] / u[k0]
            assert all(v[i] == s * u[i] for i in range(n + 1)), (n, q)
            resonant_cases += 1
    assert resonant_cases >= 20
    rng = random.Random(50)
    count = 0
    while count < 50:
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        if b in (0, 1, -1):  # the only rational resonant slopes
            continue
        n = rng.randint(2, 10)
        dim, _ = kernel_dimension(build_matrix(n, slope_cone(RATIONAL, b)))
        assert dim == 0, (n, b)
        count += 1


def test_c06_theta_identity():
    """theta * C(n, 2*n_odd+1) equals the classical polynomial's sloped-ray
    value for every degree n <= 12 and every supported exact slope."""
    slopes = [v for v in EXACT_TAN_TABLE.values()]
    slopes += [(RATIONAL, Fraction(2, 3)), (RATIONAL, Fraction(-7, 5)), (RATIONAL, Fraction(9))]
    for backend, b in slopes:
        cone = slope_cone(backend, b)
        for n in range(3, 13):
            assert pivot_identity_residual(n, cone) == 0, (n, b)


def test_c07_exit_time_first_moment():
    """G_1 = x2*(b*x1 - x2) for 20 random openings, and its one-step drift
    is exactly -1 for 20 random valid moment tables."""
    rng = random.Random(77)
    for _ in range(20):
        b = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        cone = cone_from_slope(b, RATIONAL)
        assert first_moment_poly(cone) == Poly({(1, 1): b, (0, 2): Fraction(-1)})
    g1 = first_moment_poly(make_cone(4))
    for _ in range(20):
        mu = make_moment_table(order=4, rng=rng)
        assert drift_expansion(g1, mu) == Poly.const(Fraction(-1))


def test_c08_higher_moments_pi_over_5():
    """Opening pi/5: the second exit-time moment polynomial has degree 4,
    vanishes on both rays, is divisible by x2*(b*x1 - x2), and its recursion
    residual is at most 2^-128 relative."""
    bk = bigfloat(256)
    cone = make_cone(5, bk)
    base = push_moments(skewed_walk(), 4)
    mu = MomentTable(order=4, mu={k: bk.convert(v) for k, v in base.mu.items()}, backend=bk)
    res = tau_moment_poly(2, cone, mu)
    G2 = res.G
    scale = max(1.0, G2.max_abs_float())
    assert G2.degree() == 4
    assert res.residual.max_abs_float() <= 2 ** -128 * scale
    # divisible by x2 up to float roundoff in the stored coefficients
    assert all(abs(float(c)) <= 2 ** -128 * scale for (i, j), c in G2.terms.items() if j == 0)
    with bk.workprec():
        q = Poly({(i, j - 1): c for (i, j), c in G2.terms.items() if j >= 1})  # G2 / x2
        for deg, part in q.homogeneous_parts().items():
            # each homogeneous part of the quotient vanishes on the sloped
            # ray, so the quotient is divisible by (b*x1 - x2)
            assert abs(float(part.evaluate(bk.one(), cone.b))) <= 2 ** -120 * scale


def test_c09_monte_carlo_agreement():
    """Diagonal walk (correlation -1/2, opening pi/3), start (1,1), one
    million paths, pinned seed: E[tau] bracket within 3 SE of the exact
    value 2, exit-position moments within 3 SE of (sqrt(3), 1, 5, 3), tail
    slope within -1.5 +/- 0.15.

    The pinned seed matters: the exit time has an infinite variance here
    (tail exponent 3/2), so a 3-SE test on any single seed has a nontrivial
    failure rate by design.  Seed 1 was verified to pass; the check is a
    regression gate, not a statistical certificate.
    """
    cfg = SimConfig(
        walk=diagonal_walk(),
        start=(1, 1),
        paths=1_000_000,
        seed=1,
        max_steps=1_000_000,
        checks=("tau-mean", "exit-position", "tail"),
    )
    rep = sample_exit(cfg)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["tau-mean"].target == 2.0
    assert by_name["exit-second-x1"].target == pytest.approx(5.0)
    assert by_name["exit-second-x2"].target == pytest.approx(3.0)
    assert by_name["exit-mean-x1"].target == pytest.approx(math.sqrt(3))
    assert by_name["tail"].target == -1.5
    failed = [c for c in rep.checks if not c.passed]
    assert not failed, failed


def test_c10_positivity_spot_check():
    """The built harmonic polynomial is nonnegative at every quadrant
    lattice point whose image has norm at most 50, for each built-in walk,
    evaluated exactly."""
    for w in (simple_walk(), diagonal_walk(), skewed_walk()):
        m = w.cone.m
        h = construct_harmonic(m, push_moments(w, max(m, 2))).h
        checked = 0
        for y1 in range(1, 80):
            for y2 in range(1, 80):
                x1, x2 = w.map_point(y1, y2)
                if float(x1) ** 2 + float(x2) ** 2 > 2500:
                    break
                assert h.evaluate(x1, x2) >= 0, (w, y1, y2)
                checked += 1
        assert checked > 100


def test_c11_property_suite_both_backends():
    """Every registered invariant passes under the self-test in both the
    exact fields and two float precisions."""
    for bits in (256, 64):
        results = self_test(seed=0, float_bits=bits)
        failed = [r for r in results if not r.passed]
        assert not failed, (bits, failed)
