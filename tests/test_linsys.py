"""Boundary linear systems: assembly, dense and recursive solvers, kernels,
and the scalar pivot identity."""

import random
from fractions import Fraction

import pytest

from conewalk import (
    ConeSpec,
    Poly,
    RATIONAL,
    SingularAngle,
    ValidationError,
    build_matrix,
    im_power,
    laplacian,
    make_cone,
    pivot_identity_residual,
    solve_system,
    solve_system_recursive,
    triangularize_odd,
)
from conewalk.linsys import kernel_dimension


def rational_cone(b):
    return ConeSpec(m=None, ray=(Fraction(1), Fraction(b)), backend=RATIONAL)


def test_matrix_frozen_n3_b1():
    mat = build_matrix(3, make_cone(4))
    assert [list(r) for r in mat.rows] == [
        [3, 0, 1, 0],
        [0, 1, 0, 3],
        [1, 0, 0, 0],
        [1, 1, 1, 1],
    ]


def test_matrix_frozen_n4_b1():
    mat = build_matrix(4, make_cone(4))
    assert [list(r) for r in mat.rows] == [
        [6, 0, 1, 0, 0],
        [0, 3, 0, 3, 0],
        [0, 0, 1, 0, 6],
        [1, 0, 0, 0, 0],
        [1, 1, 1, 1, 1],
    ]


def test_matrix_vertical_last_row():
    mat = build_matrix(4, make_cone(2))
    assert list(mat.rows[-1]) == [0, 0, 0, 0, 1]


def test_the_quadrant_has_no_sloped_row_to_fold():
    """The pi/2 wedge's ray (0, 1) has no slope: the even/odd path refuses
    it before it reads the right-hand side (None here)."""
    cone = make_cone(2)
    with pytest.raises(ValidationError, match="no finite slope"):
        solve_system_recursive(build_matrix(4, cone), None)
    with pytest.raises(ValidationError, match="no finite slope"):
        triangularize_odd(5, cone)


def test_matrix_rejects_low_degree():
    with pytest.raises(ValidationError):
        build_matrix(1, make_cone(4))


def test_solution_solves_the_equations():
    """The solved coefficient vector satisfies the half-Laplacian rows and
    vanishes on both rays, checked against the polynomial itself."""
    rng = random.Random(5)
    for b in (Fraction(2), Fraction(1, 3), Fraction(5, 7)):
        cone = rational_cone(b)
        for n in (3, 4, 5, 6):
            mat = build_matrix(n, cone)
            rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n - 1)] + [Fraction(0)] * 2
            a = solve_system(mat, rhs)
            p = Poly.from_power_basis(n, a)
            half = laplacian(p).map_coeffs(lambda c: c / 2)
            assert half.power_basis_coeffs(n - 2) == rhs[: n - 1]
            assert p.coeff(n, 0) == 0
            assert p.evaluate(Fraction(1), b) == 0


def test_recursive_matches_dense():
    rng = random.Random(11)
    for b in (Fraction(1), Fraction(3, 2), Fraction(-2, 5)):
        cone = rational_cone(b)
        for n in (3, 4, 5, 6, 7):
            if im_power(n).evaluate(Fraction(1), b) == 0:
                continue  # genuinely resonant degree for this slope
            mat = build_matrix(n, cone)
            rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n - 1)] + [Fraction(0)] * 2
            assert solve_system_recursive(mat, rhs) == solve_system(mat, rhs)


def test_rhs_boundary_entries_must_vanish():
    mat = build_matrix(3, make_cone(4))
    with pytest.raises(ValidationError):
        solve_system(mat, [Fraction(1), Fraction(0), Fraction(0), Fraction(1)])


def test_singular_at_resonant_slope():
    # b = 1 = tan(pi/4) = tan(2*pi/8): degree 8 is resonant
    mat = build_matrix(8, make_cone(4))
    with pytest.raises(SingularAngle):
        solve_system(mat, [Fraction(0)] * 9)


def test_kernel_at_resonance_is_classical():
    for n, cone in ((4, make_cone(4)), (6, make_cone(3)), (6, make_cone(6))):
        # slope tan(pi/m) with m | n: resonant
        mat = build_matrix(n, cone)
        dim, basis = kernel_dimension(mat)
        assert dim == 1
        u = im_power(n).power_basis_coeffs(n)
        v = basis[0]
        k0 = next(i for i, c in enumerate(u) if c != 0)
        scale = v[k0] / u[k0]
        assert all(v[i] == scale * u[i] for i in range(n + 1))


def test_kernel_trivial_off_resonance():
    dim, basis = kernel_dimension(build_matrix(5, rational_cone(Fraction(2, 3))))
    assert dim == 0 and basis == []


def test_theta_identity_exact():
    for m in (3, 4, 6, 8, 12):
        cone = make_cone(m)
        for n in range(3, 13):
            assert pivot_identity_residual(n, cone) == 0
    for b in (Fraction(2, 3), Fraction(-5), Fraction(7, 11)):
        cone = rational_cone(b)
        for n in range(3, 13):
            assert pivot_identity_residual(n, cone) == 0


def test_theta_identity_float():
    from conewalk import bigfloat

    cone = make_cone(7, bigfloat(256))
    with cone.backend.workprec():
        for n in range(3, 13):
            assert abs(pivot_identity_residual(n, cone)) < 2 ** -200


@pytest.mark.parametrize("solve", [solve_system, solve_system_recursive])
@pytest.mark.parametrize("m, n", [(32, 19), (8, 5)])
def test_float_solves_do_not_call_a_large_rhs_singular(solve, m, n):
    # whether the system is singular depends on the matrix alone
    from conewalk import bigfloat

    bk = bigfloat(256)
    mat = build_matrix(n, make_cone(m, bk))
    rng = random.Random(n)
    rhs = [bk.convert(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(n - 1)]
    rhs += [bk.zero()] * 2
    s = 10**60
    x = solve(mat, rhs)
    xs = solve(mat, [s * v for v in rhs])
    scale = max(abs(v) for v in xs)
    assert all(abs(a - s * b) <= bk.tolerance * scale for a, b in zip(xs, x))


def test_triangularization_shape():
    tri = triangularize_odd(7, make_cone(4))
    assert tri.n_odd == 3 and len(tri.lambdas) == 3
    assert tri.binom == 1  # C(7, 2*3+1) = C(7, 7)
    # Im(1+i)^7 = -8, reached exactly by theta * binom
    assert tri.theta * tri.binom == Fraction(-8)
