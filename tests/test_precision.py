"""Float fields carry their precision: results on float:N do not depend on
mpmath's global precision."""

import hashlib
import json
import random
from fractions import Fraction

import mpmath
import pytest

from conewalk import (
    MomentTable,
    WalkSpec,
    bigfloat,
    build_harmonic_alt,
    construct_harmonic,
    exit_position_moments,
    make_cone,
    one_step_residual,
    push_moments,
    tau_moment_poly,
)

from conftest import make_moment_table

#: transform needs sqrt(2) and sqrt(3), so its moments are float:256
W = WalkSpec([(1, 0, Fraction(1, 4)), (-1, 0, Fraction(1, 4)), (0, 1, Fraction(1, 6)),
              (0, -1, Fraction(1, 6)), (0, 0, Fraction(1, 6))])


def bits(v):
    """The exact binary value of a scalar, or of a Poly's coefficients."""
    terms = getattr(v, "terms", None)
    if terms is not None:
        return sorted((e, bits(c)) for e, c in terms.items())
    return v._mpf_


def results():
    bk = bigfloat(256)
    mu = make_moment_table(7, rng=random.Random(7))
    mu_f = MomentTable(order=mu.order, mu={k: bk.convert(v) for k, v in mu.mu.items()}, backend=bk)
    h_w = construct_harmonic(4, push_moments(W, 4)).h
    ep = exit_position_moments(make_cone(5), (bk.convert(3), bk.convert(Fraction(1, 3))))
    return {
        "construct_harmonic": bits(construct_harmonic(7, mu_f).h),
        "build_harmonic_alt": bits(build_harmonic_alt(7, mu_f)),
        "tau_moment_poly": bits(tau_moment_poly(3, make_cone(7, bk), mu).G),
        "push_moments": [bits(v) for _, v in sorted(push_moments(W, 4).mu.items())],
        "one_step_residual": [bits(one_step_residual(h_w, W, (y, 2 * y + 1))) for y in (1, 5, 30)],
        "exit_position_moments": [bits(v) for v in (ep.mean1, ep.mean2, ep.second1, ep.second2)],
    }


@pytest.mark.parametrize("ambient", [20, 512])
def test_float_results_ignore_the_global_precision(ambient):
    want = results()
    with mpmath.workprec(ambient):
        got = results()
    for name in want:
        assert got[name] == want[name], name


#: sha256 of results() as JSON, recorded at commit 36817e4; it moves when a
#: kernel change reorders or regroups float arithmetic
RESULTS_SHA256 = "8ccb627cb5d460bc672fc6ddd21b7de3fefa552eec2ba73c2059b260431cedfc"


def test_float_results_match_the_recorded_digest():
    """Bit-for-bit across versions, not only within one process.  The
    mantissas go through int(), so the digest does not depend on mpmath's
    integer backend."""
    got = hashlib.sha256(json.dumps(results(), sort_keys=True, default=int).encode()).hexdigest()
    assert got == RESULTS_SHA256


def test_float53_elimination_keeps_small_entries():
    """Float:53 h at m=16 agrees with float:256 within float:53's tolerance.
    The table is the benchmark's rational_moments(16, Random(16)), built
    here: orders 0-2 fixed and each higher entry +-n/12, 16 <= n < 32.
    Elimination that skipped a row by the relative zero test left small
    true entries below the pivot, and h came out with a relative error of
    2.9e-7 while boundary_ok still held."""
    rng = random.Random(16)
    mu = {(k, l): Fraction(0) for k in range(17) for l in range(17 - k)}
    mu[(0, 0)] = mu[(2, 0)] = mu[(0, 2)] = Fraction(1)
    for key in sorted(mu):
        if sum(key) >= 3:
            mu[key] = Fraction(rng.choice((-1, 1)) * rng.randrange(16, 32), 12)
    h = {}
    for prec in (53, 256):
        bk = bigfloat(prec)
        table = MomentTable(order=16, mu={k: bk.convert(v) for k, v in mu.items()}, backend=bk)
        res = construct_harmonic(16, table)
        assert res.boundary_ok
        h[prec] = res.h.terms
    low, high = h[53], h[256]
    err = max(abs(low.get(e, 0) - high.get(e, 0)) for e in set(low) | set(high))
    assert err <= bigfloat(53).tolerance * max(abs(c) for c in high.values())
