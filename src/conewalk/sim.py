"""Monte Carlo validation of the exact machinery.

Paths are simulated in integer quadrant coordinates (exit = any coordinate
<= 0, which is exact for lattice walks), in fixed-size chunks with one
counter-based RNG stream per chunk, so reports are bit-identical for a
given config regardless of how the chunks are scheduled.  Exact targets are
computed by the symbolic modules and pulled back through the normalizing
transform once, outside the hot loop.

Stepping, drawing and the sample statistics are numpy code and live in
the private module conewalk._paths, which loads numpy.  It is imported
with the first step or draw, so building a SimConfig or a report, reading
the check table and every refusal run without numpy.

The checks are the rows of one table, CHECKS (see _Check), in report
order.  Before it steps a path, sample_exit refuses every check the wedge
cannot support and every check no run of the config's size can pass, and
it steps paths only when some configured row reads them.
"""

from __future__ import annotations

import math
import numbers

from .errors import (
    InsufficientSurvivors,
    MomentCheckInvalid,
    StartNotInterior,
    ValidationError,
)
from .exits import exit_position_moments, tau_moment_poly
from .harmonic import construct_harmonic
from .poly import Poly
from .records import Record
from .walks import WalkSpec, push_moments

#: acceptance band around -p_alpha/2 for the tail-slope fit
TAIL_BAND = 0.15

#: smallest dyadic time entering the tail fit (below this the power law
#: has not set in yet)
TAIL_FIT_MIN = 16

#: minimum surviving paths for a dyadic point to be usable
TAIL_MIN_SURVIVORS = 100

#: what the tail fit needs of a run
TAIL_RULE = (f"tail needs at least 3 dyadic times from {TAIL_FIT_MIN} steps on, each with at least "
             f"{TAIL_MIN_SURVIVORS} surviving paths, one of them past 64 steps")


class CheckResult(Record):
    name: str
    estimate: float
    std_error: float
    target: float
    z: float
    passed: bool
    note: str = ""


class SimReport(Record):
    paths: int
    seed: int
    truncated: int
    checks: tuple  # CheckResult entries, in a fixed order
    tau_mean_bracket: tuple | None = None  # (completed-only mean, truncated-at-cap mean)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _pullback_value(poly: Poly, w: WalkSpec, y: tuple) -> float:
    """Evaluate a polynomial over the field of the walk's cone at a quadrant
    lattice point, exactly where the field allows, then convert to float."""
    return float(poly.evaluate(*w.map_point(*y)))


def _ztest(name: str, est: float, se: float, target: float, note: str = "", passed=None):
    """The CheckResult of a z-test of est against target; it passes within
    3 standard errors unless passed gives the verdict."""
    z = (est - target) / se if se > 0 else (0.0 if est == target else math.inf)
    return CheckResult(name, est, se, target, z, abs(z) <= 3.0 if passed is None else passed, note)


def _tau_mean(cfg: SimConfig, exits):
    """E[tau] against G_1 at the start.  The estimate counts truncated paths
    at the step cap; the check passes when the target lies within 3
    standard errors of the bracket between that mean and the mean over
    completed paths, which is also returned."""
    from ._paths import _mean_se, np

    tau, _, truncated = exits
    w = cfg.walk
    target = _pullback_value(tau_moment_poly(1, w.cone, push_moments(w, 2)).G, w, cfg.start)
    # every partial sum of integer exit times below 2^53 is exact, so
    # the mean and std of tau equal those of its float64 copy
    capped = tau if cfg.paths * cfg.max_steps < 2**53 else tau.astype(np.float64)
    est_hi, se_hi = _mean_se(capped)
    n_trunc = int(truncated.sum())
    if not n_trunc:  # the completed paths are all of them
        est_lo, se_lo = est_hi, se_hi
    elif n_trunc < tau.size:
        est_lo, se_lo = _mean_se(capped[~truncated])
    else:
        est_lo, se_lo = 0.0, 0.0
    passed = est_lo - 3 * se_lo <= target <= est_hi + 3 * se_hi
    note = f"bracket=({est_lo:.6g},{est_hi:.6g}), truncated={n_trunc}"
    return [_ztest("tau-mean", est_hi, se_hi, target, note, passed)], (est_lo, est_hi)


def _tau_second(cfg: SimConfig, exits):
    """E[tau^2] against G_2 at the start."""
    from ._paths import _mean_se, np

    w = cfg.walk
    target = _pullback_value(tau_moment_poly(2, w.cone, push_moments(w, 4)).G, w, cfg.start)
    est, se = _mean_se(np.square(exits[0], dtype=np.float64))
    return [_ztest("tau-second", est, se, target)], None


def _exit_position(cfg: SimConfig, exits):
    """Means and second moments of both coordinates of the exit point,
    mapped into the wedge, over completed paths, against
    exit_position_moments' closed forms."""
    from ._paths import _mean_se, np

    _, exit_y, truncated = exits
    w = cfg.walk
    ep = exit_position_moments(w.cone, w.map_point(*cfg.start))
    tr = w.transform
    t11, t12, t22 = (float(t) for t in (tr.t11, tr.t12, tr.t22))
    y0, y1 = exit_y[:, 0], exit_y[:, 1]
    if truncated.any():  # each column on its own: no (n, 2) copy
        y0, y1 = y0[~truncated], y1[~truncated]

    def moments(sample):  # then its square, in place: x**2 is np.square(x)
        return _mean_se(sample), _mean_se(np.square(sample, out=sample))

    # one float sample alive at a time
    x1 = t11 * y0
    del y0
    x1 += t12 * y1
    mean1, second1 = moments(x1)
    del x1
    mean2, second2 = moments(t22 * y1)
    note = f"completed paths only ({y1.size})"
    names = ("exit-mean-x1", "exit-mean-x2", "exit-second-x1", "exit-second-x2")
    targets = (ep.mean1, ep.mean2, ep.second1, ep.second2)
    found = zip(names, (mean1, mean2, second1, second2), targets)
    return [_ztest(name, est, se, float(t), note) for name, (est, se), t in found], None


def _harmonicity(cfg: SimConfig, exits):
    """One-step martingale check: the sample mean of h at the position after
    a single jump (zero on the boundary by construction) against h at the
    start.  The per-atom h values are computed exactly; sampling only
    chooses atoms, so the estimator is a multinomial average of exact
    numbers.  It reads no simulated path."""
    from ._paths import CHUNK, _chunk_rng, _table_sampler, np

    w = cfg.walk
    m = w.cone.m
    mu = push_moments(w, max(m, 2))
    h = construct_harmonic(m, mu).h
    target = _pullback_value(h, w, cfg.start)
    vals = np.array(
        [_pullback_value(h, w, (cfg.start[0] + a, cfg.start[1] + b)) for a, b, _ in w.atoms]
    )
    pick = _table_sampler(w.atoms, np.arange(len(w.atoms)))
    counts = np.zeros(len(w.atoms), dtype=np.int64)
    n_chunks = (cfg.paths + CHUNK - 1) // CHUNK
    for ci in range(n_chunks):
        count = min((ci + 1) * CHUNK, cfg.paths) - ci * CHUNK
        rng = _chunk_rng(cfg.seed, ci, substream=1)
        (j,) = pick(rng.bit_generator.random_raw(count))
        counts += np.bincount(j, minlength=len(w.atoms))
    n = counts.sum()
    est = float(np.dot(counts, vals) / n)
    var = float(np.dot(counts, (vals - est) ** 2) / max(n - 1, 1))
    return [_ztest("harmonicity", est, math.sqrt(var / n), target)], None


def _tail_refusal(cfg: SimConfig) -> str | None:
    """Why no run of cfg's size can meet TAIL_RULE, or None.  The fitted
    times lie below max_steps, so the first one past 64, 128, needs
    max_steps above 128, and each needs TAIL_MIN_SURVIVORS of the paths."""
    if cfg.paths < TAIL_MIN_SURVIVORS or cfg.max_steps <= 128:
        return f"{TAIL_RULE}, which no run of {cfg.paths} paths and max_steps {cfg.max_steps} gives"
    return None


def _tail(cfg: SimConfig, exits):
    """Least-squares slope of log survival probability against log time over
    dyadic times, within TAIL_BAND of -pi/(2 alpha); truncated paths
    (tau = cap) legitimately count as survivors at every fitted time below
    the cap.  The fitted times are those up to the first with fewer than
    TAIL_MIN_SURVIVORS survivors, and TAIL_RULE says how many it needs."""
    from ._paths import np

    tau = exits[0]
    ns = []
    n = TAIL_FIT_MIN
    while n < cfg.max_steps:
        surv = np.count_nonzero(tau > n)
        if surv < TAIL_MIN_SURVIVORS:
            break
        ns.append((n, surv))
        n *= 2
    if len(ns) < 3 or ns[-1][0] <= 64:
        found = " ".join(f"{n}:{s}" for n, s in ns) or "none"
        raise InsufficientSurvivors(f"{TAIL_RULE}; this run has {len(ns)} (time:survivors {found})")
    xs = np.log([n for n, _ in ns])
    ys = np.log([s / tau.size for _, s in ns])
    slope, _intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + _intercept)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    dof = max(len(ns) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / denom) if denom > 0 else 0.0
    slope, target = float(slope), -cfg.walk.cone.p_alpha / 2
    z = (slope - target) / se if se > 0 else 0.0
    note = f"band +/-{TAIL_BAND}, {len(ns)} dyadic points"
    return [CheckResult("tail", slope, se, target, z, abs(slope - target) <= TAIL_BAND, note)], None


class _Check(Record):
    """A row of CHECKS."""

    name: str
    degree: int | None  # the moment degree that must be finite (n < pi/alpha)
    integer_m: bool  # needs a wedge of opening pi/m, m an integer
    steps: bool  # reads the simulated exits
    run: object  # (cfg, exits) -> (CheckResults, tau-mean bracket or None)
    short: object = None  # cfg -> why no run of its size can pass, or None

    def refusal(self, cone) -> str | None:
        """Why this check cannot run in cone, or None when it can."""
        if self.degree is not None and not cone.admits(self.degree):
            return f"{self.name} needs {self.degree} < pi/alpha: {cone.refusal(self.degree)}"
        if self.integer_m and cone.m is None:
            return f"{self.name} needs an opening pi/m, m an integer: pi/alpha = {cone.p_alpha!r}"
        return None


#: every check, in report order.  P(tau > t) ~ t^(-pi/(2 alpha))
#: (Denisov-Wachtel 2015), so E[tau^k] needs 2k < pi/alpha.
CHECKS = (
    _Check("tau-mean", 2, False, True, _tau_mean),
    _Check("tau-second", 4, False, True, _tau_second),
    _Check("exit-position", 2, False, True, _exit_position),
    _Check("harmonicity", None, True, False, _harmonicity),
    _Check("tail", None, False, True, _tail, _tail_refusal),
)

KNOWN_CHECKS = tuple(c.name for c in CHECKS)


class SimConfig(Record):
    walk: WalkSpec
    start: tuple
    paths: int
    seed: int
    max_steps: int = 10_000_000
    checks: tuple = KNOWN_CHECKS[:1]  # the expected exit time

    def __post_init__(self):
        y1, y2 = self.start
        if int(y1) != y1 or int(y2) != y2 or y1 < 1 or y2 < 1:
            raise StartNotInterior(f"start {self.start} must be an interior lattice point")
        for name, least in (("paths", 1), ("max_steps", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {v!r}")
            # a Python int: numpy integers would wrap in the size arithmetic
            object.__setattr__(self, name, int(v))
        for c in self.checks:
            if c not in KNOWN_CHECKS:
                raise ValidationError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")


def sample_exit(cfg: SimConfig) -> SimReport:
    """Run the configured rows of CHECKS, in their order, against the exact
    targets.  Before any path is stepped it refuses every check the walk's
    wedge cannot support (one MomentCheckInvalid), then every check no run
    of the config's size can pass (one InsufficientSurvivors)."""
    rows = [c for c in CHECKS if c.name in cfg.checks]
    refused = [why for why in (c.refusal(cfg.walk.cone) for c in rows) if why]
    if refused:
        raise MomentCheckInvalid("; ".join(refused))
    short = [why for c in rows if c.short and (why := c.short(cfg))]
    if short:
        raise InsufficientSurvivors("; ".join(short))
    exits = None
    if any(c.steps for c in rows):
        from ._paths import _simulate_exits

        exits = _simulate_exits(cfg)
    results, bracket = [], None
    for c in rows:
        found, b = c.run(cfg, exits)
        results += found
        bracket = bracket or b
    truncated = 0 if exits is None else int(exits[2].sum())
    return SimReport(cfg.paths, cfg.seed, truncated, tuple(results), bracket)
