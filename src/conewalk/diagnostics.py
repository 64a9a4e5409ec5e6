"""Self-test property suite: every module's invariants at small sizes,
runnable from the CLI (`self-test`) and reused by the test suite.

Each property is a function returning a detail string on success and
raising AssertionError (or any ConewalkError) on failure; the runner
collects per-property pass/fail results.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

from . import linsys
from .alt import build_harmonic_alt, fourier_profile, particular_solution, polar_mode
from .cones import cone_from_slope, make_cone
from .drift import drift_expansion, one_step_residual
from .errors import MomentNotFinite, ValidationError, integer
from .exits import exit_position_moments, tau_moment_poly
from .harmonic import construct_harmonic
from .linsys import build_matrix, kernel_dimension, solve_system, solve_system_recursive
from .poly import Poly, boundary_ratio, im_power, laplacian
from .records import Record
from .scalars import RATIONAL, bigfloat, quadratic
from .sim import SimConfig, sample_exit
from .walks import MomentTable, WalkSpec, builtin_walks, check_no_overshoot, push_moments


class PropertyResult(Record):
    name: str
    passed: bool
    detail: str


def _rand_fraction(rng, lim=9, den=6) -> Fraction:
    return Fraction(rng.randint(-lim, lim), rng.randint(1, den))


def _rand_scalar(rng, root=None):
    """A random rational p, or p + q*root for a random rational q."""
    p = _rand_fraction(rng)
    return p if root is None else p + _rand_fraction(rng) * root


def _unit_table(order: int, backend, entries=()) -> MomentTable:
    """The moment table over backend with the normalized moments of order
    <= 2, the given entries, and every other moment zero."""
    mu = {(k, l): backend.zero() for k in range(order + 1) for l in range(order + 1 - k)}
    mu.update({(0, 0): backend.one(), (2, 0): backend.one(), (0, 2): backend.one()})
    mu.update(entries)
    return MomentTable(order=order, mu=mu, backend=backend)


def prop_scalar_field_axioms(rng, float_bits):
    for root in (None, quadratic(2).sqrt(2), quadratic(3).sqrt(3)):
        for _ in range(50):
            a, b, c = (_rand_scalar(rng, root) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not (b == 0):
                assert (a / b) * b == a
    return "associativity/distributivity/inverses on 150 random triples"


def prop_classical_harmonic(rng, float_bits):
    bk = bigfloat(float_bits)
    for m in range(1, 9):
        u = im_power(m)
        assert laplacian(u).is_zero()
        for _ in range(20):
            t = _rand_fraction(rng)
            assert u.evaluate(t, Fraction(0)) == 0
        t = bk.convert(_rand_fraction(rng, lim=5)) + 1
        v = u.evaluate(t * bk.mp.cos(bk.mp.pi / m), t * bk.mp.sin(bk.mp.pi / m))
        assert abs(v) <= bk.tolerance * abs(t) ** m
    return "Laplacian and both ray values of the degree-m wedge polynomials, m <= 8"


def prop_wedge_ratio_bounds(rng, float_bits):
    eps = 1e-10
    for m in range(2, 9):
        alpha = math.pi / m
        checked = 0
        while checked < 60:
            r = rng.uniform(0.5, 40)
            phi = rng.uniform(alpha * 0.05, alpha * 0.95)
            x1, x2 = r * math.cos(phi), r * math.sin(phi)
            ratio = boundary_ratio(m, x1, x2)
            assert 1 - eps <= ratio <= m + eps, (m, ratio)
            checked += 1
    return "positivity ratio within [1, m] at 420 random interior points"


def prop_poly_ring(rng, float_bits):
    def rand_poly():
        return Poly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): _rand_fraction(rng)
                for _ in range(rng.randint(1, 5))
            }
        )

    for _ in range(30):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        assert laplacian(a * f + b * g) == a * laplacian(f) + b * laplacian(g)
    return "multiplicative associativity and Laplacian linearity, 30 random triples"


def prop_walk_normalization(rng, float_bits):
    for name, w in builtin_walks().items():
        mu = push_moments(w, 4)
        assert mu(1, 0) == 0 and mu(0, 1) == 0 and mu(1, 1) == 0
        assert mu(2, 0) == 1 and mu(0, 2) == 1
        assert check_no_overshoot(w), name
    return "identity covariance and no-overshoot for all built-in walks"


def prop_drift_oracle(rng, float_bits):
    for w in builtin_walks().values():
        mu = push_moments(w, 4)
        f = Poly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): _rand_fraction(rng)
                for _ in range(4)
            }
        )
        g = drift_expansion(f, mu)
        for _ in range(15):
            y = (rng.randint(1, 15), rng.randint(1, 15))
            direct = one_step_residual(f, w, y)
            x = w.map_point(*y)
            expanded = g.evaluate(*x)
            assert direct == expanded, (y, direct, expanded)
    return "moment expansion equals the finite-support sum at 45 lattice points"


def prop_matrix_action(rng, float_bits):
    cone = make_cone(4)
    for n in range(2, 8):
        mat = build_matrix(n, cone)
        coeffs = [_rand_fraction(rng) for _ in range(n + 1)]
        f = Poly.from_power_basis(n, coeffs)
        half_lap = laplacian(f).map_coeffs(lambda c: c / 2)
        prod = [sum(row[i] * coeffs[i] for i in range(n + 1)) for row in mat.rows]
        assert prod[: n - 1] == half_lap.power_basis_coeffs(n - 2)
        assert prod[n - 1] == f.evaluate(Fraction(1), Fraction(0))
        assert prod[n] == f.evaluate(Fraction(1), Fraction(1))
    return "matrix rows reproduce the half-Laplacian and both ray values"


def prop_solver_cross_check(rng, float_bits):
    for m in (3, 4):
        cone = make_cone(m)
        for n in range(3, 13):
            if n % m == 0:
                continue
            mat = build_matrix(n, cone)
            rhs = [cone.backend.convert(_rand_fraction(rng)) for _ in range(n - 1)]
            rhs += [cone.backend.zero()] * 2
            assert solve_system(mat, rhs) == solve_system_recursive(mat, rhs), (m, n)
    cone = make_cone(5, bigfloat(float_bits))
    tol = cone.backend.tolerance
    for n in range(3, 13):
        if n % 5 == 0:
            continue
        mat = build_matrix(n, cone)
        rhs = [cone.backend.convert(_rand_fraction(rng)) for _ in range(n - 1)]
        rhs += [cone.backend.zero()] * 2
        x1 = solve_system(mat, rhs)
        x2 = solve_system_recursive(mat, rhs)
        scale = max(1.0, max(abs(float(v)) for v in x1))
        assert all(abs(a - b) <= tol * scale for a, b in zip(x1, x2)), n
    return "dense and even/odd solution paths agree, n <= 12, exact and float"


def prop_theta_identity(rng, float_bits):
    for m in (3, 4, 6, 8, 12):
        cone = make_cone(m)
        for n in range(3, 13):
            r = linsys.pivot_identity_residual(n, cone)
            assert r == 0, (m, n, r)
    cone = make_cone(7, bigfloat(float_bits))
    for n in range(3, 13):
        r = linsys.pivot_identity_residual(n, cone)
        scale = max(1.0, abs(float(cone.b)) ** n * 2**n)
        assert abs(r) <= cone.backend.tolerance * scale, (n, r)
    return "folded pivot times binomial equals the wedge polynomial at (1, b), n <= 12"


def prop_kernel_dichotomy(rng, float_bits):
    for m in (3, 4, 6):
        cone = make_cone(m)
        for n in range(2, 11):
            dim, basis = kernel_dimension(build_matrix(n, cone))
            expect = 1 if n % m == 0 else 0
            assert dim == expect, (m, n, dim)
            if dim:
                u = im_power(n).power_basis_coeffs(n)
                vec = basis[0]
                piv = next((i for i, v in enumerate(u) if v != 0))
                ratio = vec[piv] / u[piv]
                assert all(vec[i] == ratio * u[i] for i in range(n + 1)), (m, n)
    for _ in range(20):
        b = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        if b == 1:
            continue
        cone = cone_from_slope(b, RATIONAL)
        n = rng.randint(2, 8)
        dim, _ = kernel_dimension(build_matrix(n, cone))
        assert dim == 0, (b, n)
    return "kernel is the wedge-polynomial line at resonant slopes and 0 otherwise"


def prop_harmonic_end_to_end(rng, float_bits):
    for name, w in builtin_walks().items():
        m = w.cone.m
        mu = push_moments(w, max(m, 2))
        res = construct_harmonic(m, mu)
        assert res.boundary_ok and res.residual.is_zero()
        assert res.h.homogeneous_part(m) == im_power(m)
        for _ in range(200):
            y = (rng.randint(1, 40), rng.randint(1, 40))
            assert one_step_residual(res.h, w, y) == 0, (name, y)
    return "exact one-step harmonicity at 200 lattice points per built-in walk"


def prop_harmonic_moment_linearity(rng, float_bits):
    q3 = quadratic(3)
    third = [(3, 0), (2, 1), (1, 2), (0, 3)]
    base = {key: _rand_scalar(rng, q3.sqrt(3)) for key in third}
    doubled = {key: 2 * base[key] for key in third}
    c0 = construct_harmonic(3, _unit_table(3, q3)).correction
    c1 = construct_harmonic(3, _unit_table(3, q3, base)).correction
    c2 = construct_harmonic(3, _unit_table(3, q3, doubled)).correction
    assert c0.is_zero()
    assert c2 == c1 + c1, "correction not linear in the third moments"
    return "correction doubles when every third moment doubles (affine with zero offset)"


def prop_harmonic_positivity(rng, float_bits):
    for name, w in builtin_walks().items():
        m = w.cone.m
        mu = push_moments(w, max(m, 2))
        h = construct_harmonic(m, mu).h
        tr = w.transform
        pulled = h.substitute_linear(tr.t11, tr.t12, w.backend.zero(), tr.t22)
        for y1 in range(1, 51):
            for y2 in range(1, 51):
                if y1 * y1 + y2 * y2 > 2500:
                    continue
                v = pulled.evaluate(y1, y2)
                assert float(v) >= 0, (name, y1, y2, v)
    return "h >= 0 at every quadrant lattice point with |y| <= 50, all built-in walks"


def prop_boundary_divisibility(rng, float_bits):
    for w in builtin_walks().values():
        m = w.cone.m
        if m < 3:
            continue
        h = construct_harmonic(m, push_moments(w, m)).h
        cone = w.cone
        # divisible by x2: no x2-free terms
        assert all(j > 0 for (_, j) in h.terms)
        # after dividing by x2, the quotient still vanishes on the sloped ray
        q = Poly({(i, j - 1): c for (i, j), c in h.terms.items()})
        for deg in {i + j for i, j in q.terms}:
            assert q.homogeneous_part(deg).evaluate(cone.backend.one(), cone.b) == 0
    return "h divisible by x2 with quotient still vanishing on the sloped ray"


def prop_exit_first_moment(rng, float_bits):
    bk = bigfloat(float_bits)
    for _ in range(20):
        m = rng.randint(3, 24)
        cone = make_cone(m) if m in (3, 4, 6, 8, 12) else make_cone(m, bk)
        table = _unit_table(2, cone.backend)
        g1 = tau_moment_poly(1, cone, table).G
        expect = Poly({(1, 1): cone.b, (0, 2): -cone.backend.one()})
        d = g1 - expect
        assert all(
            abs(float(c)) <= 1e-70 for c in d.terms.values()
        ) or d.is_zero()
        out = drift_expansion(g1, table)
        assert out.degree() == 0 and float(out.coeff(0, 0) + 1) == 0
    return "expected-exit-time polynomial and its unit drift at 20 random openings"


def prop_exit_threshold(rng, float_bits):
    cone3 = make_cone(3)
    mu = push_moments(builtin_walks()["diagonal"], 4)
    try:
        tau_moment_poly(2, cone3, mu)
        raise AssertionError("threshold not enforced")
    except MomentNotFinite:
        pass
    try:
        tau_moment_poly(1, make_cone(2), push_moments(builtin_walks()["simple"], 2))
        raise AssertionError("threshold not enforced at opening pi/2")
    except MomentNotFinite:
        pass
    return "moment finiteness threshold raises exactly at 2k >= pi/alpha"


def prop_exit_pullback(rng, float_bits):
    w = builtin_walks()["diagonal"]
    mu = push_moments(w, 2)
    g1 = tau_moment_poly(1, w.cone, mu).G
    tr = w.transform
    pulled = g1.substitute_linear(tr.t11, tr.t12, w.backend.zero(), tr.t22)
    assert pulled == Poly({(1, 1): 2}), pulled
    ep = exit_position_moments(w.cone, w.map_point(1, 1))
    assert float(ep.second1) == 5.0 and float(ep.second2) == 3.0
    return "expected exit time pulls back to 2*y1*y2; second moments (5, 3) at (1,1)"


#: sigma12 < 0 walks whose wedge is a float:256 one: the first is exactly
#: pi/3 (rho = -1/2), but its transform needs two square-root fields; the
#: second opens arccos(1/3) over a Q(sqrt 2) transform
_FLOAT_WEDGE_WALKS = (
    [(2, -1, "1/10"), (-1, 2, "1/10"), (-1, 0, "1/10"), (0, -1, "1/10"), (1, 1, "1/30"),
     (-1, -1, "1/30"), (0, 0, "8/15")],
    [(2, -1, "2/15"), (-1, 2, "2/15"), (-1, 0, "2/15"), (0, -1, "2/15"), (1, 1, "1/10"),
     (-1, -1, "1/10"), (0, 0, "4/15")],
)


def prop_walk_first_moment(rng, float_bits):
    walks = [WalkSpec(atoms) for atoms in _FLOAT_WEDGE_WALKS]
    for _ in range(10):
        # symmetric pairs +-v; p(1,-1) > p(1,1) makes sigma12 < 0
        p10, p01, p11 = (rng.randint(0, 4) for _ in range(3))
        if p10 + p01 + p11 == 0:
            p10 = 1  # steps on the anti-diagonal alone have rho = -1
        weights = {(1, 0): p10, (0, 1): p01, (1, 1): p11, (1, -1): p11 + rng.randint(1, 4)}
        total = 2 * sum(weights.values())
        atoms = [(s * a, s * b, Fraction(p, total))
                 for (a, b), p in weights.items() if p for s in (1, -1)]
        walks.append(WalkSpec(atoms))
    for w in walks:
        g1 = tau_moment_poly(1, w.cone, push_moments(w, 2)).G
        bk = w.cone.backend
        for _ in range(5):
            y = (rng.randint(1, 20), rng.randint(1, 20))
            want = Fraction(y[0] * y[1]) / -w.cov
            got = g1.evaluate(*w.map_point(*y))
            # == on exact fields, within the tolerance on float fields
            assert bk.is_zero(got - want, bk.scale([want])), (w.atoms, y, got, want)
    return "E_y tau = y1*y2/(-sigma12) at 5 points for 12 walks with sigma12 < 0"


def prop_alt_laplacian(rng, float_bits):
    for n in range(0, 9):
        for j in range(n + 1):
            f = particular_solution(j, n - j)
            assert laplacian(f) == Poly.monomial(j, n - j, Fraction(1)), (j, n - j)
            prof = fourier_profile(j, n - j)
            for l in range(n + 1):
                if l % 2 != n % 2:
                    assert prof.kappa[l] == 0 and prof.mu_s[l] == 0
    return "particular solutions invert the Laplacian on all monomials of degree <= 8"


def prop_alt_oracle(rng, float_bits):
    walks = builtin_walks()
    for name, w in walks.items():
        m = w.cone.m
        mu = push_moments(w, max(m, 2))
        assert construct_harmonic(m, mu).h == build_harmonic_alt(m, mu), name
    bk = bigfloat(float_bits)
    mu_src = push_moments(walks["diagonal"], 7)
    mu_f = mu_src.to(bk)
    for m in (5, 6, 7):
        h1 = construct_harmonic(m, mu_f).h
        h2 = build_harmonic_alt(m, mu_f)
        d = h1 - h2
        scale = max(1.0, h1.max_abs_float())
        assert all(abs(float(c)) <= bk.tolerance * scale for c in d.terms.values()), m
    return "both builders agree exactly (m <= 4) and to tolerance (m = 5..7)"


def prop_alt_mode_sampling(rng, float_bits):
    for l in (0, 1, 3, 4):
        for total in (l, l + 2, l + 4):
            pc = polar_mode(total, l, "cos").map_coeffs(float)
            ps = polar_mode(total, l, "sin").map_coeffs(float)
            for i in range(64):
                beta = 2 * math.pi * i / 64 + 0.013
                x1, x2 = math.cos(beta), math.sin(beta)
                assert abs(pc.evaluate(x1, x2) - math.cos(l * beta)) < 1e-9
                assert abs(ps.evaluate(x1, x2) - math.sin(l * beta)) < 1e-9
    return "polar modes reproduce cos/sin(l*beta) at 64 sample angles"


def prop_sim_degenerate(rng, float_bits):
    w = WalkSpec(
        [(2, -1, Fraction(1, 3)), (-1, 2, Fraction(1, 3)), (-1, -1, Fraction(1, 3))]
    )
    cfg = SimConfig(walk=w, start=(1, 1), paths=2000, seed=99, max_steps=100, checks=())
    from ._paths import _simulate_exits

    tau, _, truncated = _simulate_exits(cfg)
    assert not truncated.any() and (tau == 1).all()
    return "every-jump-exits walk gives exit time identically 1"


def prop_sim_reproducible(rng, float_bits):
    w = builtin_walks()["diagonal"]
    cfg = SimConfig(
        walk=w, start=(1, 1), paths=20000, seed=7, max_steps=100000,
        checks=("tau-mean", "harmonicity"),
    )
    assert sample_exit(cfg) == sample_exit(cfg)
    return "identical config yields a bit-identical report"


#: (name, property) for every prop_* function above, in definition order;
#: prop_exit_pullback is named exit-pullback
_PROPERTIES = [
    (name[5:].replace("_", "-"), fn) for name, fn in globals().items() if name.startswith("prop_")
]


def self_test(seed: int = 0, float_bits: int = 256) -> list[PropertyResult]:
    """Run every property; float-sensitive properties use the given
    precision (criterion: they must still pass at 64 bits with the
    precision-scaled tolerance).  A precision no float field takes is a
    ValidationError, raised before any property runs, as is a seed that
    is no integer."""
    seed = integer(seed, "seed")
    try:
        bigfloat(float_bits)
    except ValueError as e:
        raise ValidationError(f"float_bits {float_bits}: {e}") from None
    results = []
    for name, fn in _PROPERTIES:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            detail = fn(rng, float_bits)
            results.append(PropertyResult(name=name, passed=True, detail=detail))
        except Exception as e:  # noqa: BLE001 - every failure must be reported, not raised
            results.append(PropertyResult(name=name, passed=False, detail=f"{type(e).__name__}: {e}"))
    return results
