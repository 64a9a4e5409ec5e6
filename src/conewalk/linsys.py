"""The (n+1) x (n+1) boundary linear systems that pin down a degree-n
homogeneous correction term, and their structure-exploiting solution.

The unknown is the coefficient vector [a_0 .. a_n] of the homogeneous part
sum_i a_i x1^(n-i) x2^i.  The first n-1 rows say its Laplacian matches a
prescribed degree-(n-2) polynomial; the last two rows force the value to
vanish on both boundary rays of the wedge (x2 = 0 and c*x2 = s*x1).

Two solution paths are provided: dense Gaussian elimination, and a
recursive even/odd split that reduces the whole system to one scalar pivot
whose value is an explicit polynomial in the slope b.  Agreement of the two
paths is a strong internal consistency check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cones import ConeSpec
from .errors import SingularAngle, ValidationError
from .poly import im_power
from .records import Record


class BoundaryMatrix(Record):
    """The assembled system for one degree: rows over the cone's scalar field."""

    n: int
    rows: tuple  # (n+1) tuples of length n+1
    cone: ConeSpec


def build_matrix(n: int, cone: ConeSpec) -> BoundaryMatrix:
    """Assemble the degree-n system.

    Row i (1-based, i = 1..n-1) encodes the x1^(n-1-i) x2^(i-1) coefficient
    of the Laplacian; its two nonzero entries are C(n-i+1, 2) in column i-1
    and C(i+1, 2) in column i+1 (0-based columns).  Row n is (1, 0, ..., 0):
    the value on the ray x2 = 0 is a_0 * x1^n, so vanishing there means
    a_0 = 0.  Row n+1 evaluates at the second ray (c, s): its entry i is
    c^(n-i) s^i, which is b^i for c = 1.
    """
    if n < 2:
        raise ValidationError("boundary systems start at degree 2")
    backend = cone.backend
    one = backend.one()
    zero = backend.zero()
    rows = []
    for i in range(1, n):
        row = [zero] * (n + 1)
        row[i - 1] = backend.convert(math.comb(n - i + 1, 2))
        row[i + 1] = backend.convert(math.comb(i + 1, 2))
        rows.append(tuple(row))
    rows.append(tuple([one] + [zero] * n))
    c, s = cone.ray
    cpow, spow = [one], [one]
    for _ in range(n):
        cpow.append(cpow[-1] * c)
        spow.append(spow[-1] * s)
    rows.append(tuple(x * y for x, y in zip(reversed(cpow), spow)))
    return BoundaryMatrix(n=n, rows=tuple(rows), cone=cone)


def _prepare(mat: BoundaryMatrix, rhs):
    """Copy rows/rhs into mutable lists, lifted into the cone's field (mixed
    Fraction/mpf arithmetic is not closed under subtraction)."""
    lift = mat.cone.backend.lift
    return [[lift(v) for v in row] for row in mat.rows], [lift(v) for v in rhs]


def _forward_eliminate(a, b, backend, scale):
    """Row-echelon reduction in place; returns the list of pivot columns."""
    m = len(a)
    ncols = len(a[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= m:
            break
        pr = backend.pivot([a[r][col] for r in range(row, m)], scale)
        if pr is None:
            continue
        pr += row
        a[row], a[pr] = a[pr], a[row]
        b[row], b[pr] = b[pr], b[row]
        piv = a[row][col]
        for r in range(row + 1, m):
            if a[r][col] == 0:  # only an exact zero: a small entry is still a true one
                continue
            f = a[r][col] / piv
            for c in range(col, ncols):
                a[r][c] = a[r][c] - f * a[row][c]
            b[r] = b[r] - f * b[row]
        pivots.append(col)
        row += 1
    return pivots


def solve_system(mat: BoundaryMatrix, rhs) -> list:
    """Solve the dense system; rhs is the length-(n+1) right-hand side whose
    last two entries must be zero (the boundary rows are homogeneous
    constraints).  Raises SingularAngle when the matrix is singular."""
    n = mat.n
    if len(rhs) != n + 1:
        raise ValidationError(f"rhs length {len(rhs)}, expected {n + 1}")
    backend = mat.cone.backend
    if not backend.vanishes(rhs[-2:], backend.scale(*mat.rows, rhs)):
        raise ValidationError("last two rhs entries (boundary rows) must be zero")
    a, b = _prepare(mat, rhs)
    scale = backend.scale(*a)  # singularity depends on the matrix, not the rhs
    pivots = _forward_eliminate(a, b, backend, scale)
    if len(pivots) < n + 1:
        raise SingularAngle(f"degree-{n} boundary system is singular for this slope")
    # back substitution (matrix is square with full rank; pivot col == row)
    x = [backend.zero()] * (n + 1)
    for r in range(n, -1, -1):
        acc = b[r]
        for c in range(r + 1, n + 1):
            acc = acc - a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def kernel_dimension(mat: BoundaryMatrix) -> tuple[int, list]:
    """Rank deficiency of the system matrix and a basis of its null space
    (each basis vector a length-(n+1) coefficient list)."""
    backend = mat.cone.backend
    a, b = _prepare(mat, [backend.zero()] * (mat.n + 1))
    scale = backend.scale(*a)
    pivots = _forward_eliminate(a, b, backend, scale)
    ncols = mat.n + 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [backend.zero()] * ncols
        vec[fc] = backend.one()
        # rows with pivot col p: a[r][p]*vec[p] + sum_{c>p} a[r][c]*vec[c] = 0
        for r in range(len(pivots) - 1, -1, -1):
            p = pivots[r]
            acc = backend.zero()
            for c in range(p + 1, ncols):
                acc = acc + a[r][c] * vec[c]
            vec[p] = -acc / a[r][p]
        basis.append(vec)
    return len(free), basis


# ---- structured even/odd solution path --------------------------------


class OddTriangularization(Record):
    """Summary of the odd-index back-substitution: the multipliers folded
    into the boundary row and the single remaining pivot."""

    n: int
    n_odd: int  # number of elimination steps; last odd index is 2*n_odd + 1
    lambdas: tuple  # multiplier for interior odd row k = 1..n_odd
    pivot: object  # final coefficient of a_(2*n_odd+1) in the folded boundary row
    theta: object  # sign-normalized pivot: theta * C(n, 2*n_odd+1) = u_n(1, b)
    binom: int  # C(n, 2*n_odd+1)


def triangularize_odd(n: int, cone: ConeSpec) -> OddTriangularization:
    """Eliminate the odd-index unknowns of the degree-n system into the
    sloped-boundary row.

    The interior rows couple consecutive odd coefficients,
    C(n-2k+1, 2) a_(2k-1) + C(2k+1, 2) a_(2k+1) = c_(2k-1); folding row k
    into the boundary row with multiplier lambda_k leaves a single pivot
    multiplying the top odd coefficient.  The multipliers satisfy
    lambda_1 = -b / C(n-1, 2) and
    lambda_(k+1) = -(b^(2k+1) + lambda_k C(2k+1, 2)) / C(n-2k-1, 2),
    and the pivot equals b^(2*n_odd+1) + lambda_(n_odd) C(2*n_odd+1, 2).

    Up to sign the pivot is the boundary value of the classical degree-n
    wedge polynomial divided by a binomial: the returned theta satisfies
    theta * C(n, 2*n_odd+1) = Im(1 + i b)^n exactly.
    """
    if n < 3:
        raise ValidationError("odd triangularization needs degree >= 3")
    b = cone.b  # ValidationError at opening pi/2: no sloped row to fold
    n_odd = (n - 1) // 2
    lambdas = []
    lam = -b / Fraction(math.comb(n - 1, 2))
    lambdas.append(lam)
    bpow = b  # b^(2k+1) tracker, currently b^1
    for k in range(1, n_odd):
        bpow = bpow * b * b  # now b^(2k+1)
        lam = -(bpow + lam * math.comb(2 * k + 1, 2)) / Fraction(math.comb(n - 2 * k - 1, 2))
        lambdas.append(lam)
    top = 2 * n_odd + 1
    pivot = b**top + lambdas[-1] * math.comb(top, 2)
    theta = pivot if n_odd % 2 == 0 else -pivot
    return OddTriangularization(
        n=n,
        n_odd=n_odd,
        lambdas=tuple(lambdas),
        pivot=pivot,
        theta=theta,
        binom=math.comb(n, top),
    )


def solve_system_recursive(mat: BoundaryMatrix, rhs) -> list:
    """Solve the same system through the even/odd structure instead of dense
    elimination.

    Even indices follow a two-term recursion seeded by a_0 = 0 (the x2 = 0
    boundary row); odd indices come from folding the interior odd rows into
    the sloped boundary row (see triangularize_odd), solving for the top odd
    coefficient, and back-substituting.  Requires a finite slope and
    n >= 3; agreement with solve_system is exercised by the tests.
    """
    n = mat.n
    cone = mat.cone
    backend = cone.backend
    b = cone.b  # ValidationError at opening pi/2, before any work
    if n < 3:
        raise ValidationError("recursive path needs degree >= 3")
    if len(rhs) != n + 1:
        raise ValidationError(f"rhs length {len(rhs)}, expected {n + 1}")
    if not backend.vanishes(rhs[-2:], backend.scale(*mat.rows, rhs)):
        raise ValidationError("last two rhs entries (boundary rows) must be zero")
    # c[i-1] is the Laplacian row for basis index i
    c = [backend.lift(v) for v in rhs[: n - 1]]

    a = [backend.zero()] * (n + 1)
    # even part: a_0 = 0; row index 2k (k >= 1) of the Laplacian block reads
    # C(n-2k+2, 2) a_(2k-2) + C(2k, 2) a_(2k) = c_(2k-2)
    for k in range(1, n // 2 + 1):
        a[2 * k] = (c[2 * k - 2] - math.comb(n - 2 * k + 2, 2) * a[2 * k - 2]) / Fraction(
            math.comb(2 * k, 2)
        )

    # odd part: fold interior rows into the sloped boundary row
    tri = triangularize_odd(n, cone)
    # boundary residual from the even coefficients: r = -sum_k b^(2k) a_(2k)
    r = backend.zero()
    bpow = backend.one()
    for k in range(0, n // 2 + 1):
        r = r - bpow * a[2 * k]
        bpow = bpow * b * b
    for k in range(1, tri.n_odd + 1):
        r = r + tri.lambdas[k - 1] * c[2 * k - 1]
    pivot = tri.pivot
    if backend.is_zero(pivot, backend.scale(*mat.rows)):
        raise SingularAngle(f"degree-{n} odd pivot vanishes for this slope")
    top = 2 * tri.n_odd + 1
    a[top] = r / pivot
    for k in range(tri.n_odd, 0, -1):
        a[2 * k - 1] = (c[2 * k - 1] - math.comb(2 * k + 1, 2) * a[2 * k + 1]) / Fraction(
            math.comb(n - 2 * k + 1, 2)
        )
    return a


def pivot_identity_residual(n: int, cone: ConeSpec):
    """theta * C(n, 2*n_odd+1) - Im(1 + i b)^n; exactly zero for every slope.
    Exposed for the self-test suite."""
    tri = triangularize_odd(n, cone)
    u = im_power(n).evaluate(cone.backend.one(), cone.b)
    return tri.theta * tri.binom - u
