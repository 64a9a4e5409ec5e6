"""Lattice jump distributions in quadrant coordinates, the normalizing
transform to identity covariance, the no-overshoot check, and exact mixed
moment tables of the transformed step."""

from __future__ import annotations

import math
from fractions import Fraction

from .cones import ConeSpec, cone_for_table, cone_from_slope
from .errors import DegenerateCorrelation, InsufficientMoments, ValidationError, integer
from .records import Record
from .scalars import RATIONAL, Backend, bigfloat, exact_field, roots_field


class MomentTable(Record):
    """Mixed moments E[X1^k X2^l] for k + l <= order, X the normalized step."""

    order: int
    mu: dict
    backend: Backend

    def __post_init__(self):
        object.__setattr__(self, "order", integer(self.order, "moment order", 2))
        for k in range(self.order + 1):
            for l in range(self.order + 1 - k):
                if (k, l) not in self.mu:
                    raise ValidationError(f"moment table missing entry ({k},{l})")
        # a float field lifts every entry to its precision; an exact field
        # takes exact entries (int, Fraction, elements of one Q(sqrt(d))) only
        mu = {k: self.backend.lift(v) for k, v in self.mu.items()}
        if self.backend.exact and exact_field(mu.values()) is None:
            raise ValidationError(f"{self.backend.name} moment table has a non-exact entry")
        object.__setattr__(self, "mu", mu)
        z, o = self.backend.zero(), self.backend.one()
        fixed = {(0, 0): o, (1, 0): z, (0, 1): z, (2, 0): o, (0, 2): o, (1, 1): z}
        for key, want in fixed.items():
            got = self.mu[key]  # to its own magnitude, not the table's largest
            if not self.backend.is_zero(got - want, self.backend.scale([got])):
                raise ValidationError(f"moment normalization violated at {key}: {got}")

    def __call__(self, k: int, l: int):
        if k + l > self.order:
            raise InsufficientMoments(f"order {self.order} < requested {k}+{l}")
        return self.mu[(k, l)]

    def to(self, backend: Backend) -> "MomentTable":
        """This table as operands of backend's field: self when the fields
        mix (Backend.mixes_with), lifted to the precision of a float field,
        and else refused with a ValidationError naming both fields."""
        if backend.mixes_with(self.backend):
            return self
        if backend.exact:
            raise ValidationError(f"a {self.backend.name} moment table does not mix with {backend.name}")
        return MomentTable(self.order, {k: backend.lift(v) for k, v in self.mu.items()}, backend)


class TransformInfo(Record):
    """The normalizing matrix and both angle conventions."""

    t11: object
    t12: object
    t22: object
    rho_squared: Fraction
    rho_sign: int
    alpha_geometric: float  # arccos(-rho), the opening of the image wedge
    alpha_formula: float  # arctan(sqrt(1-rho^2)/rho), recorded for comparison
    backend: Backend

    def rho_float(self) -> float:
        return self.rho_sign * math.sqrt(float(self.rho_squared))

    def apply(self, y1, y2):
        return (self.t11 * y1 + self.t12 * y2, self.t22 * y2)


class WalkSpec:
    """A finite-support mean-zero lattice jump distribution in quadrant
    coordinates, with its derived normalizing transform and wedge."""

    def __init__(self, atoms):
        seen = set()
        self.atoms = []
        total = Fraction(0)
        for dy1, dy2, p in atoms:
            dy1, dy2 = integer(dy1, "jump"), integer(dy2, "jump")
            p = RATIONAL.convert(p)
            if p <= 0:
                raise ValidationError("probabilities must be positive")
            if (dy1, dy2) in seen:
                raise ValidationError(f"duplicate atom {(dy1, dy2)}")
            seen.add((dy1, dy2))
            self.atoms.append((dy1, dy2, p))
            total += p
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        m1 = sum(p * a for a, _, p in self.atoms)
        m2 = sum(p * b for _, b, p in self.atoms)
        if m1 != 0 or m2 != 0:
            raise ValidationError(f"mean is ({m1}, {m2}), not zero")
        self.ey1sq = sum(p * a * a for a, _, p in self.atoms)
        self.ey2sq = sum(p * b * b for _, b, p in self.atoms)
        self.cov = sum(p * a * b for a, b, p in self.atoms)
        if self.ey1sq == 0 or self.ey2sq == 0:
            raise ValidationError("degenerate coordinate (zero variance)")
        self.rho_squared = self.cov * self.cov / (self.ey1sq * self.ey2sq)
        if self.rho_squared >= 1:
            raise DegenerateCorrelation("|rho| = 1")
        self.rho_sign = 0 if self.cov == 0 else (1 if self.cov > 0 else -1)
        self.transform = build_transform(self)
        #: T dy for each atom, in the transform's field
        self.jumps = [self.transform.apply(a, b) for a, b, _ in self.atoms]
        self.cone = cone_for_walk(self)

    def __eq__(self, other):
        # the atoms, in order, fix everything else (the simulator's draws too)
        if not isinstance(other, WalkSpec):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(tuple(self.atoms))

    @property
    def backend(self) -> Backend:
        return self.transform.backend

    def map_point(self, y1, y2):
        """Quadrant lattice point -> wedge coordinates through the transform,
        in the field of the walk's cone."""
        return _image(self, (y1, y2), self.cone.backend)


def _image(w: WalkSpec, y: tuple, backend: Backend) -> tuple:
    """T y for a quadrant point y, lifted into backend's field (a float
    field takes exact values; exact fields mix as they are)."""
    x1, x2 = w.transform.apply(*y)
    return backend.lift(x1), backend.lift(x2)


def build_transform(w: WalkSpec) -> TransformInfo:
    """Upper-triangular T with Cov(T*Y) = identity, plus the image-wedge
    opening angle.  T entries are kept exact when the two needed square
    roots fall in rationals or a single quadratic field; otherwise they are
    256-bit floats."""
    # T = [[1/s1, -cov/(ey2sq*s1)], [0, 1/s2]] with
    # s1 = sqrt((ey1sq*ey2sq - cov^2)/ey2sq), s2 = sqrt(ey2sq)
    s1sq = (w.ey1sq * w.ey2sq - w.cov * w.cov) / w.ey2sq
    backend = roots_field(s1sq, w.ey2sq)
    s1, s2 = backend.sqrt(s1sq), backend.sqrt(w.ey2sq)
    cov, ey2 = backend.lift(w.cov), backend.lift(w.ey2sq)
    rho = w.rho_sign * math.sqrt(float(w.rho_squared))
    # the formula's principal branch, recorded verbatim for comparison
    alpha_formula = math.atan(math.sqrt(1 - rho * rho) / rho) if rho != 0 else math.pi / 2
    return TransformInfo(
        t11=1 / s1,
        t12=-cov / (ey2 * s1),
        t22=1 / s2,
        rho_squared=w.rho_squared,
        rho_sign=w.rho_sign,
        alpha_geometric=math.acos(-rho),
        alpha_formula=alpha_formula,
        backend=backend,
    )


#: rho^2 of the walks whose wedge is pi/m: cos^2(pi/m) is rational only for
#: m in {1, 2, 3, 4, 6}, and m = 1 would need |rho| = 1
_PI_OVER_M = {Fraction(0): 2, Fraction(1, 4): 3, Fraction(1, 2): 4, Fraction(3, 4): 6}


def cone_for_walk(w: WalkSpec) -> ConeSpec:
    """The wedge the quadrant maps onto, of opening arccos(-rho).  It is
    pi/m exactly when rho <= 0 and rho^2 = cos^2(pi/m), and then it is the
    cone construct_harmonic runs the walk's moments over; any other walk
    gets the general-angle cone on float:256."""
    m = _PI_OVER_M.get(w.rho_squared) if w.rho_sign <= 0 else None
    if m is not None:
        return cone_for_table(m, w.backend)
    # general angle: slope from tan(alpha) = sqrt(1-rho^2)/(-rho)
    backend = bigfloat()
    r2 = backend.convert(w.rho_squared)
    b = backend.sqrt(1 - r2) / (-w.rho_sign * backend.sqrt(r2))
    return cone_from_slope(b, backend)


def check_no_overshoot(w: WalkSpec) -> bool:
    """Sufficient no-overshoot condition: every jump component >= -1 in
    quadrant coordinates, so exits land exactly on the boundary."""
    return all(a >= -1 and b >= -1 for a, b, _ in w.atoms)


def push_moments(w: WalkSpec, order: int) -> MomentTable:
    """Exact mixed moments of X = T*Y over the finite support."""
    order = integer(order, "moment order", 2)
    tr = w.transform
    backend = tr.backend
    mu = {}
    # precompute X coordinates per atom
    pts = [(tr.apply(a, b), p) for a, b, p in w.atoms]
    for k in range(order + 1):
        for l in range(order + 1 - k):
            acc = backend.zero()
            for (x1, x2), p in pts:
                acc = acc + p * x1**k * x2**l
            mu[(k, l)] = acc
    return MomentTable(order=order, mu=mu, backend=backend)


# ---- built-in example walks -------------------------------------------


def simple_walk() -> WalkSpec:
    """Symmetric nearest-neighbour walk; uncorrelated, quadrant stays a
    quarter plane (opening pi/2)."""
    q = Fraction(1, 4)
    return WalkSpec([(1, 0, q), (-1, 0, q), (0, 1, q), (0, -1, q)])


def diagonal_walk() -> WalkSpec:
    """Diagonal jumps with correlation -1/2; image wedge opening pi/3."""
    return WalkSpec(
        [
            (1, 1, Fraction(1, 8)),
            (-1, -1, Fraction(1, 8)),
            (1, -1, Fraction(3, 8)),
            (-1, 1, Fraction(3, 8)),
        ]
    )


def skewed_walk() -> WalkSpec:
    """Asymmetric no-overshoot walk with rho^2 = 1/2 and a fully rational
    transform T = [[2, 2], [0, 2]]; image wedge opening pi/4, nonzero third
    moments."""
    return WalkSpec(
        [
            (2, -1, Fraction(1, 16)),
            (-1, 1, Fraction(1, 8)),
            (0, -1, Fraction(1, 16)),
            (1, 0, Fraction(1, 16)),
            (-1, 0, Fraction(1, 16)),
            (0, 0, Fraction(5, 8)),
        ]
    )


def builtin_walks() -> dict[str, WalkSpec]:
    return {"simple": simple_walk(), "diagonal": diagonal_walk(), "skewed": skewed_walk()}
