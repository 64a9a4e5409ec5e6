"""Every integer argument that comes from outside goes through one rule,
conewalk.errors.integer: a Python or numpy integer, not a bool, of at
least the argument's bound, stored as a Python int.  A float, a bool or a
string raises ValidationError, never a bare TypeError or a truncated
value."""

from fractions import Fraction

import numpy as np
import pytest

from conewalk import (
    RATIONAL,
    MomentTable,
    Poly,
    SimConfig,
    ValidationError,
    WalkSpec,
    build_harmonic_alt,
    build_matrix,
    check_low_degree_uniqueness,
    construct_harmonic,
    converse_angle_test,
    diagonal_walk,
    eliminate_monomial,
    im_power,
    make_cone,
    one_step_residual,
    poisson_solve,
    push_moments,
    quadratic,
    re_power,
    self_test,
    solve_system_recursive,
    tau_moment_poly,
    triangularize_odd,
)
from conewalk.alt import fourier_profile
from conewalk.jsonio import moments_from_obj, moments_to_obj, poly_from_obj, walk_from_obj
from conewalk.linsys import BoundaryMatrix
from conewalk.poly import boundary_ratio
from conftest import make_moment_table

MU = make_moment_table(6)
Q = Fraction(1, 4)


def _walk(v) -> WalkSpec:
    """A walk with the jump (v, 0), mean zero when v = 3."""
    return WalkSpec([(v, 0, Q), (-3, 0, Q), (0, 1, Q), (0, -1, Q)])


def _walk_obj(v) -> dict:
    return {"atoms": [{"dy": [v, 0], "p": "1/4"}, {"dy": [-3, 0], "p": "1/4"},
                      {"dy": [0, 1], "p": "1/4"}, {"dy": [0, -1], "p": "1/4"}]}


def _moments_obj(key: str, v) -> dict:
    """The order-3 table's JSON with v in place of one value 3: the order,
    or the k of the (3, 0) entry, or the l of the (0, 3) entry."""
    obj = moments_to_obj(make_moment_table(3))
    if key == "order":
        obj["order"] = v
    for e in obj["mu"]:
        if e.get(key) == 3:
            e[key] = v
    return obj


def _sim(**kw) -> SimConfig:
    return SimConfig(**{"walk": diagonal_walk(), "start": (1, 1), "paths": 10, "seed": 0, **kw})


def _recursive(v):
    cone = make_cone(4)
    return solve_system_recursive(BoundaryMatrix(v, build_matrix(3, cone).rows, cone), [1, 0, 0, 0])


#: name: (call with v in place of a valid 3, the stored value or None)
ENTRY_POINTS = {
    "make_cone m": (make_cone, lambda r: r.m),
    "construct_harmonic m": (lambda v: construct_harmonic(v, MU), lambda r: r.m),
    "build_harmonic_alt m": (lambda v: build_harmonic_alt(v, MU), None),
    "check_low_degree_uniqueness m": (lambda v: check_low_degree_uniqueness(v, MU, Poly.zero()), None),
    "im_power m": (im_power, None),
    "re_power m": (re_power, None),
    "boundary_ratio m": (lambda v: boundary_ratio(v, 1, Fraction(1, 10)), None),
    "one_step_residual y": (lambda v: one_step_residual(Poly.zero(), diagonal_walk(), (v, 1)), None),
    "eliminate_monomial m": (lambda v: eliminate_monomial(0, 0, v), None),
    "quadratic d": (quadratic, lambda r: r.d),
    "self_test seed": (lambda v: self_test(seed=v, float_bits=64), None),
    "converse_angle_test n": (lambda v: converse_angle_test(v, make_cone(3)), lambda r: r.n),
    "ConeSpec.admits n": (lambda v: make_cone(4).admits(v), None),
    "poisson_solve n": (lambda v: poisson_solve(Poly.const(Fraction(1)), make_cone(4), MU, v), None),
    "build_matrix n": (lambda v: build_matrix(v, make_cone(4)), lambda r: r.n),
    "triangularize_odd n": (lambda v: triangularize_odd(v, make_cone(4)), lambda r: r.n),
    "solve_system_recursive n": (_recursive, None),
    "tau_moment_poly k": (lambda v: tau_moment_poly(v, make_cone(8), MU), lambda r: r.k),
    "fourier_profile j": (lambda v: fourier_profile(v, 1), lambda r: r.n - 1),
    "fourier_profile k": (lambda v: fourier_profile(1, v), lambda r: r.n - 1),
    "Poly ** n": (lambda v: Poly.x1() ** v, lambda r: next(iter(r.terms))[0]),
    "MomentTable order": (lambda v: MomentTable(v, make_moment_table(3).mu, RATIONAL), lambda r: r.order),
    "push_moments order": (lambda v: push_moments(diagonal_walk(), v), lambda r: r.order),
    "WalkSpec jump": (_walk, lambda r: r.atoms[0][0]),
    "SimConfig paths": (lambda v: _sim(paths=v), lambda r: r.paths),
    "SimConfig max_steps": (lambda v: _sim(max_steps=v), lambda r: r.max_steps),
    "SimConfig seed": (lambda v: _sim(seed=v), lambda r: r.seed),
    "SimConfig start": (lambda v: _sim(start=(v, 1)), lambda r: r.start[0]),
    "walk_from_obj dy": (lambda v: walk_from_obj(_walk_obj(v)), lambda r: r.atoms[0][0]),
    "poly_from_obj i": (lambda v: poly_from_obj({"terms": [{"i": v, "j": 0, "c": "1"}]}),
                        lambda r: next(iter(r.terms))[0]),
    "poly_from_obj j": (lambda v: poly_from_obj({"terms": [{"i": 0, "j": v, "c": "1"}]}),
                        lambda r: next(iter(r.terms))[1]),
    "moments_from_obj order": (lambda v: moments_from_obj(_moments_obj("order", v), RATIONAL),
                               lambda r: r.order),
    "moments_from_obj k": (lambda v: moments_from_obj(_moments_obj("k", v), RATIONAL),
                           lambda r: max(k for k, _ in r.mu)),
    "moments_from_obj l": (lambda v: moments_from_obj(_moments_obj("l", v), RATIONAL),
                           lambda r: max(l for _, l in r.mu)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_integer_arguments_follow_one_rule(name):
    call, stored = ENTRY_POINTS[name]
    for bad in (2.5, True, "3"):
        with pytest.raises(ValidationError):
            call(bad)
    got = call(np.int64(3))
    if stored is not None:
        assert stored(got) == 3 and type(stored(got)) is int
