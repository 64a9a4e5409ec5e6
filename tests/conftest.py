"""Shared helpers: valid moment tables with chosen or random higher moments,
walks whose wedge is not the one their transform's field suggests, and the
scalar-arithmetic reference for polynomial evaluation."""

import random
from fractions import Fraction

import pytest

from conewalk import MomentTable, RATIONAL


def make_moment_table(order=4, backend=RATIONAL, higher=None, rng=None):
    """A normalized moment table: fixed low-order entries, higher moments
    from `higher` (dict) or drawn at random."""
    mu = {}
    for k in range(order + 1):
        for l in range(order + 1 - k):
            mu[(k, l)] = Fraction(0)
    mu[(0, 0)] = Fraction(1)
    mu[(2, 0)] = Fraction(1)
    mu[(0, 2)] = Fraction(1)
    if higher:
        for key, v in higher.items():
            mu[key] = Fraction(v)
    elif rng is not None:
        for k in range(order + 1):
            for l in range(order + 1 - k):
                if k + l >= 3:
                    mu[(k, l)] = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
    return MomentTable(order=order, mu=mu, backend=backend)


def scalar_sum(p, x1, x2):
    """p(x1, x2) in the scalars' own arithmetic: the terms in storage order,
    each as c * x1**i * x2**j, added to an int 0."""
    out = 0
    for (i, j), c in p.terms.items():
        out = out + c * x1**i * x2**j
    return out


#: rho = -1/2, sigma12 = -1/3: exactly pi/3, but the transform needs sqrt(2)
#: and sqrt(3), so the wedge is the float:256 pi/3 one
W_A = [(2, -1, Fraction(1, 10)), (-1, 2, Fraction(1, 10)), (-1, 0, Fraction(1, 10)),
       (0, -1, Fraction(1, 10)), (1, 1, Fraction(1, 30)), (-1, -1, Fraction(1, 30)),
       (0, 0, Fraction(8, 15))]

#: rho = -1/3, sigma12 = -1/3: the general opening arccos(1/3), a float:256
#: wedge over a Q(sqrt 2) transform
W_B = [(2, -1, Fraction(2, 15)), (-1, 2, Fraction(2, 15)), (-1, 0, Fraction(2, 15)),
       (0, -1, Fraction(2, 15)), (1, 1, Fraction(1, 10)), (-1, -1, Fraction(1, 10)),
       (0, 0, Fraction(4, 15))]

#: rho = -1/2 + 10^-13: a general opening just wider than pi/3
_NEAR, _FAR = Fraction(5000000000001, 40000000000000), Fraction(14999999999999, 40000000000000)
W_C = [(1, 1, _NEAR), (-1, -1, _NEAR), (1, -1, _FAR), (-1, 1, _FAR)]


@pytest.fixture
def rng():
    return random.Random(0)
