"""Walk specifications, normalizing transforms, pushed moment tables."""

import pickle
import re
import time
from fractions import Fraction

import pytest

from conewalk import (
    DegenerateCorrelation,
    MomentTable,
    QuadElement,
    RATIONAL,
    ValidationError,
    WalkSpec,
    bigfloat,
    check_no_overshoot,
    construct_harmonic,
    diagonal_walk,
    first_moment_poly,
    push_moments,
    quadratic,
    simple_walk,
    skewed_walk,
    tau_moment_poly,
)
from conewalk import scalars
from conewalk.cones import cone_for_table
from conftest import W_A, W_B, W_C, make_moment_table


def test_walk_with_a_large_prime_denominator_builds_fast():
    """The transform takes sqrt(2/q); finding the square-free part of q took
    time proportional to sqrt(q), 15 s for this q."""
    q = 10000000000000061
    atoms = [(1, 0, Fraction(1, q)), (-1, 0, Fraction(1, q)), (0, 1, Fraction(1, 4)),
             (0, -1, Fraction(1, 4)), (0, 0, Fraction(1, 2) - Fraction(2, q))]
    started = time.perf_counter()
    w = WalkSpec(atoms)
    assert time.perf_counter() - started < 1.0
    assert w.cone.backend.name == "float:256"  # sqrt(2q) and sqrt(2) do not share a field


def test_transform_finds_each_square_free_part_once(monkeypatch):
    """W_C's transform lies in Q(sqrt d), d an 86-bit square-free integer.
    Finding the field and then the square roots in it used to factor nine
    integers, 86-bit ones three times; now each of the four, numerator and
    denominator of s1^2 and of E[Y2^2], is factored once."""
    real, calls = scalars.squarefree_decompose, []
    monkeypatch.setattr(scalars, "squarefree_decompose", lambda n: calls.append(n) or real(n))
    w = WalkSpec(W_C)
    assert w.backend.name.startswith("quad:") and len(calls) == 4


def test_walk_validation():
    with pytest.raises(ValidationError):
        WalkSpec([(1, 0, Fraction(1, 2))])  # doesn't sum to 1
    with pytest.raises(ValidationError):
        WalkSpec([(1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))])  # nonzero mean
    with pytest.raises(ValidationError):
        WalkSpec([(1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))])  # duplicate
    with pytest.raises(DegenerateCorrelation):
        WalkSpec([(1, 1, Fraction(1, 2)), (-1, -1, Fraction(1, 2))])


def test_simple_walk_quarter_plane():
    w = simple_walk()
    assert w.cov == 0 and w.cone.m == 2
    assert check_no_overshoot(w)


def test_diagonal_walk_cone():
    w = diagonal_walk()
    assert w.cov == Fraction(-1, 2)
    assert w.rho_squared == Fraction(1, 4)
    assert w.cone.m == 3
    assert w.backend.name == "quad:3"
    assert check_no_overshoot(w)


def test_skewed_walk_rational_transform():
    w = skewed_walk()
    tr = w.transform
    assert (tr.t11, tr.t12, tr.t22) == (Fraction(2), Fraction(2), Fraction(2))
    assert w.cone.m == 4
    assert w.backend is RATIONAL
    assert check_no_overshoot(w)


def test_transform_normalizes_covariance():
    for w in (simple_walk(), diagonal_walk(), skewed_walk()):
        mu = push_moments(w, 2)
        z, o = mu.backend.zero(), mu.backend.one()
        assert mu(1, 0) == z and mu(0, 1) == z
        assert mu(2, 0) == o and mu(0, 2) == o and mu(1, 1) == z


def test_skewed_third_moments_nonzero():
    mu = push_moments(skewed_walk(), 4)
    assert any(mu(k, l) != 0 for k, l in ((3, 0), (2, 1), (1, 2), (0, 3)))


def test_moment_table_validation():
    with pytest.raises(ValidationError):
        MomentTable(order=1, mu={}, backend=RATIONAL)
    mu = {
        (k, l): Fraction(0) for k in range(3) for l in range(3 - k)
    }
    mu[(0, 0)] = Fraction(1)
    mu[(2, 0)] = Fraction(1)
    # (0,2) left at 0: normalization violated
    with pytest.raises(ValidationError):
        MomentTable(order=2, mu=mu, backend=RATIONAL)


def test_float_table_lifts_every_entry():
    """A float:256 table takes int and Fraction entries as their float:256
    values, so it builds the same h as the table given converted entries.
    An int entry used to reach the builder as an int, where an int/int
    quotient is a 53-bit float; a Fraction entry ended in a TypeError."""
    bk = bigfloat(256)
    higher = {(3, 0): 2, (0, 3): -1, (4, 0): 3, (2, 2): 1, (0, 4): 5, (1, 3): Fraction(-2, 3)}
    mu = make_moment_table(4, higher=higher).mu
    want = construct_harmonic(4, MomentTable(4, {k: bk.convert(v) for k, v in mu.items()}, bk)).h
    ints = {k: int(v) if v.denominator == 1 else bk.convert(v) for k, v in mu.items()}
    for given in (ints, dict(mu)):
        table = MomentTable(order=4, mu=given, backend=bk)
        assert all(v.context is bk.mp for v in table.mu.values())
        assert construct_harmonic(4, table).h == want


@pytest.mark.parametrize("big", ["1e40", "1e400"])
def test_float_table_checks_each_fixed_entry_on_its_own_scale(big):
    """mu(0,2) = 5 is refused however large another entry is.  The fixed
    entries used to be tested relative to the largest entry of the table,
    so an entry of 1e40 let mu(0,2) = 5 through, and one of 1e400, past
    the float64 range, made that scale inf."""
    bk = bigfloat(256)
    mu = {k: bk.convert(v) for k, v in make_moment_table(4).mu.items()}
    mu[(4, 0)] = bk.mp.mpf(big)
    assert MomentTable(order=4, mu=mu, backend=bk)(4, 0) == bk.mp.mpf(big)
    mu[(0, 2)] = bk.convert(5)
    with pytest.raises(ValidationError, match=re.escape("violated at (0, 2)")):
        MomentTable(order=4, mu=mu, backend=bk)


@pytest.mark.parametrize("entry", [0.1, "mpf"])
def test_exact_table_refuses_a_non_exact_entry(entry):
    """A Python float or an mpf in a rational table is a ValidationError; a
    float entry used to build h with float coefficients and boundary_ok
    False, an mpf one to end in a TypeError."""
    mu = dict(make_moment_table(4).mu)
    mu[(3, 0)] = bigfloat().convert(Fraction(1, 10)) if entry == "mpf" else entry
    with pytest.raises(ValidationError, match="non-exact entry"):
        MomentTable(order=4, mu=mu, backend=RATIONAL)
    mu[(3, 0)] = QuadElement(1, 1, 3)
    assert MomentTable(order=4, mu=mu, backend=RATIONAL)(3, 0) == QuadElement(1, 1, 3)


def test_moment_order_enforced():
    mu = push_moments(simple_walk(), 2)
    with pytest.raises(Exception):
        mu(2, 1)


def test_walks_compare_and_hash_by_their_atoms():
    """Two constructions of one walk are equal, also after a pickle round
    trip; the order of the atoms counts, as it does for the simulator."""
    w = diagonal_walk()
    assert w == diagonal_walk() == pickle.loads(pickle.dumps(w))
    assert hash(w) == hash(diagonal_walk())
    assert w != skewed_walk() and w != w.atoms
    assert w != WalkSpec(w.atoms[::-1])
    assert len({w, diagonal_walk(), simple_walk()}) == 2


def test_map_point():
    w = skewed_walk()
    assert w.map_point(1, 1) == (Fraction(4), Fraction(2))


# rho = -1/3: the transform needs two square-root fields and the opening
# arccos(1/3) is not pi/m, so everything runs on the float backend
FLOAT_TRANSFORM_ATOMS = [
    (1, -1, Fraction(1, 10)),
    (-1, 1, Fraction(1, 10)),
    (1, 0, Fraction(1, 5)),
    (-1, 0, Fraction(1, 5)),
    (0, 1, Fraction(1, 5)),
    (0, -1, Fraction(1, 5)),
]


def test_float_transform_moments_at_backend_precision():
    w = WalkSpec(FLOAT_TRANSFORM_ATOMS)
    assert w.backend.name == "float:256" and w.cone.m is None
    mu = push_moments(w, 4)
    bk = mu.backend
    with bk.workprec():
        for key, want in {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 1, (0, 2): 1, (1, 1): 0}.items():
            assert abs(mu(*key) - want) <= bk.tolerance, key


def test_general_angle_slope_at_backend_precision():
    w = WalkSpec(FLOAT_TRANSFORM_ATOMS)
    g1 = first_moment_poly(w.cone)
    bk = w.cone.backend
    with bk.workprec():
        for y2 in range(1, 6):
            # T(0, y2) lies on the image of the boundary y1 = 0, where G_1 vanishes
            assert abs(g1.evaluate(*w.map_point(0, y2))) <= bk.tolerance, y2


def test_builtin_walks_keep_their_cones():
    for w, m, backend, ray in ((simple_walk(), 2, RATIONAL, (0, 1)),
                               (diagonal_walk(), 3, quadratic(3), (1, QuadElement(0, 1, 3))),
                               (skewed_walk(), 4, RATIONAL, (1, Fraction(1)))):
        assert (w.cone.m, w.cone.backend, w.cone.ray) == (m, backend, ray)
        assert w.cone == cone_for_table(m, w.backend)


def test_walk_wedge_is_pi_over_m_only_for_an_exact_rho_squared():
    field = bigfloat()
    # exactly pi/3: the cone is the one a float table runs in
    w = WalkSpec(W_A)
    assert w.backend.name == "float:256"
    assert w.cone.m == 3 and w.cone == cone_for_table(3, w.backend)
    assert w.cone.b == field.tan_pi_over(3)
    # 10^-13 off pi/3: the walk's own slope sqrt(1 - rho^2)/(-rho)
    w = WalkSpec(W_C)
    assert w.cone.m is None and w.cone.backend.name == "float:256"
    rho = field.convert(w.cov)  # unit variances: rho is the covariance
    assert abs(w.cone.b - field.mp.sqrt(1 - rho * rho) / -rho) <= field.mp.mpf(2) ** -128
    assert abs(w.cone.b - field.tan_pi_over(3)) > 4e-13
    # rho = +1/2 has rho^2 = 1/4 but opens 2*pi/3
    w = WalkSpec([(1, 1, Fraction(3, 8)), (-1, -1, Fraction(3, 8)),
                  (1, -1, Fraction(1, 8)), (-1, 1, Fraction(1, 8))])
    assert w.cone.m is None and abs(w.cone.p_alpha_float() - 1.5) < 1e-12


def test_map_point_lifts_into_the_cone_field():
    """A Q(sqrt 2) transform and a general float:256 wedge: the image of a
    lattice point is in the cone's field, where E tau = y1*y2/(-sigma12)."""
    w = WalkSpec(W_B)
    assert w.backend == quadratic(2) and w.cone.m is None
    bk = w.cone.backend
    x = w.map_point(2, 3)
    assert all(v.context is bk.mp for v in x)
    g1 = tau_moment_poly(1, w.cone, push_moments(w, 2)).G
    assert abs(g1.evaluate(*x) - 18) <= bk.tolerance * 18
