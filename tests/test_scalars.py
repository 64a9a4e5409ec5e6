"""Scalar fields: rationals, quadratic extensions, big floats."""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conewalk import (
    QuadElement,
    RATIONAL,
    ValidationError,
    backend_from_name,
    bigfloat,
    construct_harmonic,
    diagonal_walk,
    format_scalar,
    make_cone,
    push_moments,
    quadratic,
    simple_walk,
)
import conewalk
from conewalk.scalars import is_mpf, sqrt_fraction, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(50) == (5, 2)


def test_squarefree_decompose_large_cofactors():
    """Trial division stops at the cube root of the cofactor; isqrt settles
    what is left: a prime squared, two primes, or one prime.  The primes p
    and q lie above the cube root of every product below, so trial
    division never reaches them."""
    p, q = 1000003, 1000033
    assert squarefree_decompose(p * p) == (p, 1)
    assert squarefree_decompose(p * q) == (1, p * q)
    assert squarefree_decompose(3 * p * p) == (p, 3)
    assert squarefree_decompose(4 * 3 * q * q) == (2 * q, 3)
    assert squarefree_decompose(12 * p * q) == (2, 3 * p * q)
    big = 10000000000000061
    assert squarefree_decompose(2 * big) == (1, 2 * big)
    assert sqrt_fraction(Fraction(8, 9 * big)) == (Fraction(2, 3 * big), 2 * big)


def test_squarefree_decompose_gives_up_with_a_typed_error():
    """A 61-bit prime has no factor below the trial limit and is above its
    cube, so it cannot be settled."""
    with pytest.raises(ValidationError):
        squarefree_decompose(2**61 - 1)


def test_sqrt_fraction():
    r, d = sqrt_fraction(Fraction(9, 4))
    assert (r, d) == (Fraction(3, 2), 1)
    r, d = sqrt_fraction(Fraction(3, 4))
    assert d == 3 and r * r * 3 == Fraction(3, 4)


def test_quad_field_axioms():
    a = QuadElement(1, 2, 3)  # 1 + 2*sqrt(3)
    b = QuadElement(Fraction(1, 2), -1, 3)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == QuadElement(1, 0, 3)
    assert a**3 == a * a * a
    assert -a + a == QuadElement(0, 0, 3)


def test_quad_sign_and_order():
    s3 = QuadElement(0, 1, 3)
    assert s3.sign() == 1
    assert (-s3).sign() == -1
    assert QuadElement(2, -1, 3).sign() == 1  # 2 - sqrt(3) > 0
    assert QuadElement(1, -1, 3).sign() == -1  # 1 - sqrt(3) < 0
    assert QuadElement(0, 0, 3).sign() == 0
    assert QuadElement(1, 1, 2) > 2  # 1 + sqrt(2) > 2
    assert QuadElement(1, 1, 2) < Fraction(5, 2)


def test_quad_sqrt():
    bk = quadratic(3)
    v = bk.sqrt(Fraction(3, 4))
    assert v * v == Fraction(3, 4)
    with pytest.raises(ValueError):
        bk.sqrt(Fraction(2))


def test_every_field_answers_sqrt_tan_and_pivot():
    """Square roots, tan(pi/m) and the pivot rule belong to the field: an
    exact field gives exact values or raises ValueError, a float field
    computes at its precision and pivots on the largest magnitude."""
    assert RATIONAL.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert quadratic(2).sqrt(Fraction(9, 4)) == QuadElement(Fraction(3, 2), 0, 2)
    assert quadratic(2).sqrt(8) == QuadElement(0, 2, 2)
    assert RATIONAL.tan_pi_over(4) == 1 and quadratic(2).tan_pi_over(8) == QuadElement(-1, 1, 2)
    assert quadratic(3).tan_pi_over(12) == QuadElement(2, -1, 3)
    for fails in (lambda: RATIONAL.sqrt(3), lambda: quadratic(2).sqrt(3), lambda: RATIONAL.tan_pi_over(3),
                  lambda: quadratic(2).tan_pi_over(6), lambda: quadratic(3).tan_pi_over(5)):
        with pytest.raises(ValueError):
            fails()
    bk = bigfloat(256)
    assert bk.sqrt(2) == bk.mp.sqrt(2) and bk.sqrt(Fraction(1, 3)) == bk.mp.sqrt(bk.convert(Fraction(1, 3)))
    assert bk.tan_pi_over(5) == bk.mp.tan(bk.mp.pi / 5)
    with pytest.raises(ValueError):
        bk.sqrt(-1)
    assert RATIONAL.pivot([0, Fraction(0), Fraction(1, 9), 5]) == 2
    assert quadratic(3).pivot([QuadElement(0, 0, 3), QuadElement(0, 1, 3)]) == 1
    assert RATIONAL.pivot([0, 0]) is None
    assert bk.pivot([bk.convert(1), bk.convert(-3), bk.convert(3)]) == 1
    assert bk.pivot([bk.mp.mpf(2) ** -200, bk.convert(0)]) is None
    tiny = bk.mp.mpf(2) ** -100
    assert bk.pivot([tiny]) == 0 and bk.pivot([tiny], scale=2.0**40) is None


def test_float_backend_precision():
    bk = bigfloat(256)
    with bk.workprec():
        v = bk.convert(Fraction(1, 3))
        err = abs(v * 3 - 1)
        assert err < 2 ** -250


def test_is_mpf_agrees_with_the_mpf_base_class():
    import mpmath
    from mpmath.ctx_mp_python import _mpf

    values = [bigfloat(64).convert(1) / 3, bigfloat(256).convert(2), mpmath.mpf(1) / 7,
              mpmath.mp.pi, mpmath.mpc(1, 2), 3, 0.5, Fraction(1, 3), QuadElement(1, 2, 3)]
    assert [is_mpf(v) for v in values] == [isinstance(v, _mpf) for v in values]
    assert [is_mpf(v) for v in values] == [True] * 4 + [False] * 5


def test_float_values_pickle_into_their_field():
    bk = bigfloat(256)
    v = bk.convert(1) / 3
    assert pickle.loads(pickle.dumps(v)) == v
    res = construct_harmonic(5, push_moments(simple_walk(), 5))
    assert res.cone.backend.name == "float:256"
    data = pickle.dumps(res)
    back = pickle.loads(data)
    assert back.h == res.h and back.cone.backend.name == "float:256"
    assert all(c.context is bk.mp for c in back.h.terms.values())
    # in a fresh process, unpickling is what loads mpmath
    code = (
        "import pickle, sys\n"
        "assert 'mpmath' not in sys.modules\n"
        "res = pickle.loads(sys.stdin.buffer.read())\n"
        "assert 'mpmath' in sys.modules\n"
        "assert all(c.context.prec == 256 for c in res.h.terms.values())\n"
        "print(sorted((k, c._mpf_) for k, c in res.h.terms.items()))\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == repr(sorted((k, c._mpf_) for k, c in res.h.terms.items()))


def test_one_backend_object_per_field():
    """Each field is one object, so records over it compare equal however
    often they are built or pickled."""
    assert bigfloat() is bigfloat(256)
    assert make_cone(5) == make_cone(5)
    mu = push_moments(diagonal_walk(), 4)
    for record in (make_cone(3), make_cone(4), mu, mu.to(bigfloat(256))):
        assert pickle.loads(pickle.dumps(record)) == record, record
    for field in (RATIONAL, quadratic(3), bigfloat(256)):
        assert pickle.loads(pickle.dumps(field)) is field


def test_backend_from_name():
    assert backend_from_name("rational") is RATIONAL
    assert backend_from_name("quad:5").name == "quad:5"
    assert backend_from_name("float:128").name == "float:128"
    with pytest.raises(ValueError):
        backend_from_name("decimal")


def test_backend_parse_roundtrip():
    for bk, s in (
        (RATIONAL, "-7/3"),
        (quadratic(2), "-1+1*sqrt(2)"),
    ):
        assert format_scalar(bk.parse(s)) == s


def test_scalar_to_float():
    assert float(Fraction(1, 2)) == 0.5
    assert abs(float(QuadElement(0, 1, 2)) - 2**0.5) < 1e-15


# ---- QuadElement against a reference model (Hypothesis) ------------------
#
# The model keeps p + q*sqrt(d) as two Fractions and writes the field
# operations out by hand; QuadElement stores integers (a + b*sqrt(d)) / c.


def ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def ref_inv(x, d):
    norm = x[0] * x[0] - x[1] * x[1] * d
    return (x[0] / norm, -x[1] / norm)


def ref_pow(x, n, d):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, x, d)
    return ref_inv(out, d) if n < 0 else out


def pair(v):
    """A scalar operand as the model's (p, q)."""
    return (v.p, v.q) if isinstance(v, QuadElement) else (Fraction(v), Fraction(0))


# small denominators often, so integer-valued p and q turn up
fractions_ = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.one_of(st.integers(1, 3), st.integers(1, 10**6))
)
fields = st.sampled_from([2, 3, 5])


@st.composite
def elements(draw, d=None, irrational=False):
    d = draw(fields) if d is None else d
    q = draw(fractions_ if irrational else st.one_of(st.just(Fraction(0)), fractions_))
    if irrational and q == 0:
        q = Fraction(1)
    return QuadElement(draw(fractions_), q, d)


@st.composite
def element_and_operand(draw):
    x = draw(elements())
    operands = [elements(d=x.d), fractions_, st.integers(-(10**9), 10**9)]
    if x.q != 0:
        # a rational value of another field takes x's field, in either order
        other = st.sampled_from([d for d in (2, 3, 5, 7) if d != x.d])
        operands.append(other.flatmap(lambda d: st.builds(QuadElement, fractions_, st.just(0), st.just(d))))
    y = draw(st.one_of(*operands))
    return x, y


def assert_matches(got, want, d):
    assert isinstance(got, QuadElement)
    assert (got.p, got.q, got.d) == (want[0], want[1], d)


quad_settings = settings(max_examples=200, deadline=None)


@quad_settings
@given(element_and_operand())
def test_quad_arithmetic_matches_model(xy):
    x, y = xy
    d, px, py = x.d, pair(x), pair(y)
    assert_matches(x + y, (px[0] + py[0], px[1] + py[1]), d)
    assert_matches(y + x, (px[0] + py[0], px[1] + py[1]), d)
    assert_matches(x - y, (px[0] - py[0], px[1] - py[1]), d)
    assert_matches(y - x, (py[0] - px[0], py[1] - px[1]), d)
    assert_matches(x * y, ref_mul(px, py, d), d)
    assert_matches(y * x, ref_mul(px, py, d), d)
    assert_matches(-x, (-px[0], -px[1]), d)
    if py != (0, 0):
        assert_matches(x / y, ref_mul(px, ref_inv(py, d), d), d)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if px != (0, 0):
        assert_matches(y / x, ref_mul(py, ref_inv(px, d), d), d)
        assert_matches(x.inverse(), ref_inv(px, d), d)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@quad_settings
@given(elements())
def test_quad_times_int_matches_model(x):
    """The integer fast path of QuadElement.__mul__ reduces by gcd(n, c)
    alone; a bool operand takes the general path."""
    for n in (0, 1, -1, -7, 2**70, True):
        want = ref_mul(pair(x), (Fraction(n), Fraction(0)), x.d)
        assert_matches(x * n, want, x.d)
        assert_matches(n * x, want, x.d)
        got = x * n
        assert math.gcd(got._a, got._b, got._c) == 1 and got._c > 0


@quad_settings
@given(elements(), st.integers(-4, 6))
def test_quad_power_matches_model(x, n):
    if x == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    assert_matches(x**n, ref_pow(pair(x), n, x.d), x.d)


@quad_settings
@given(fractions_, fractions_, fields)
def test_quad_p_q_round_trip(p, q, d):
    x = QuadElement(p, q, d)
    assert (x.p, x.q, x.d) == (p, q, d)
    assert type(x.p) is Fraction and type(x.q) is Fraction
    y = QuadElement(x.p, x.q, x.d)
    assert y == x and repr(y) == repr(x)
    assert float(x) == float(p) + float(q) * math.sqrt(d)


@quad_settings
@given(element_and_operand())
def test_quad_equal_values_have_equal_repr_and_hash(xy):
    x, y = xy
    same = [QuadElement(x.p, x.q, x.d), (x + y) - y, -(-x)]
    if y != 0:
        same.append((x * y) / y)
    for v in same:
        assert v == x and x == v
        assert repr(v) == repr(x) and hash(v) == hash(x)
    if x.q == 0:
        # a rational value equals, and hashes like, its Fraction and any field's copy
        assert x == x.p and x.p == x and hash(x) == hash(x.p)
        other = QuadElement(x.p, 0, 7)
        assert x == other and hash(x) == hash(other)
        assert (x == x.p.numerator) == (x.p.denominator == 1)
        assert x != x.p + Fraction(1, 3) and x != x.p.numerator + 1
        assert x.p == 0 or x != x.p / 2  # same numerator when it is odd
        if x.p.denominator == 1:
            n = x.p.numerator
            assert x == n and n == x and hash(x) == hash(n)
    else:
        assert x != x.p and x != QuadElement(x.p, x.q, 7)


@quad_settings
@given(elements(d=2, irrational=True), elements(d=3, irrational=True))
def test_quad_fields_do_not_mix(x, y):
    for op in (
        lambda: x + y,
        lambda: x - y,
        lambda: x * y,
        lambda: x / y,
        lambda: x < y,
        lambda: y > x,
    ):
        with pytest.raises(ValueError):
            op()


@quad_settings
@given(element_and_operand())
def test_quad_order_matches_floats(xy):
    x, y = xy
    diff = float(x) - float(y)
    if abs(diff) > 1e-6 * max(1.0, abs(float(x)), abs(float(y))):
        assert (x < y) == (diff < 0) and (x > y) == (diff > 0)
        assert (x - y).sign() == (1 if diff > 0 else -1)
    assert (x - x).sign() == 0 and x <= x and x >= x
