"""Monte Carlo validation of the exact machinery.

Paths are simulated in integer quadrant coordinates (exit = any coordinate
<= 0, which is exact for lattice walks), in fixed-size chunks with one
counter-based RNG stream per chunk, so reports are bit-identical for a
given config regardless of how the chunks are scheduled.  Exact targets are
computed by the symbolic modules and pulled back through the normalizing
transform once, outside the hot loop.

Draw order: within a chunk, path i consumes the same stream draws as under
one-at-a-time stepping, where each step takes one draw per surviving path
in path order.  A chunk steps alone only while many of its paths survive;
then the survivors of a group of chunks step as one array.  An array takes
one step at a time while many of its paths survive and blocks of steps
once few are left (see _simulate_exits).  Every chunk still draws from its
own stream under this rule, so the schedule changes no report.  A draw is
the stream's raw 64-bit word, and its atom is the one that
Generator.random's double of that word picks, and the steps read the
atom's jump off per-bucket tables (see _table_sampler).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSurvivors,
    MomentCheckInvalid,
    StartNotInterior,
    ValidationError,
)
from .exits import tau_moment_poly
from .harmonic import construct_harmonic
from .poly import Poly
from .walks import WalkSpec, push_moments

KNOWN_CHECKS = ("tau-mean", "tau-second", "exit-position", "harmonicity", "tail")

#: paths per RNG stream; fixed so chunking never depends on worker count
CHUNK = 65536

#: survivors above which every step is taken on its own; below it, exits
#: are rare enough that blocks of steps pay off
BLOCK_SWITCH = 512

#: most draws one block of steps may take, so the block arrays stay small
BLOCK_DRAWS = 16384

#: buckets of the atom lookup table: a draw u falls in floor(u * ATOM_TABLE)
ATOM_TABLE = 1 << 12

#: fewest draws taken from a chunk's stream at once; the ones a block does
#: not use wait in the chunk's buffer
DRAW_BATCH = 4096

#: acceptance band around -p_alpha/2 for the tail-slope fit
TAIL_BAND = 0.15

#: smallest dyadic time entering the tail fit (below this the power law
#: has not set in yet)
TAIL_FIT_MIN = 16

#: minimum surviving paths for a dyadic point to be usable
TAIL_MIN_SURVIVORS = 100


@dataclass(frozen=True)
class SimConfig:
    walk: WalkSpec
    start: tuple
    paths: int
    seed: int
    max_steps: int = 10_000_000
    checks: tuple = ("tau-mean",)

    def __post_init__(self):
        y1, y2 = self.start
        if int(y1) != y1 or int(y2) != y2 or y1 < 1 or y2 < 1:
            raise StartNotInterior(f"start {self.start} must be an interior lattice point")
        if self.paths < 1 or self.max_steps < 1:
            raise ValidationError("paths and max_steps must be >= 1")
        for c in self.checks:
            if c not in KNOWN_CHECKS:
                raise ValidationError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    estimate: float
    std_error: float
    target: float
    z: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SimReport:
    paths: int
    seed: int
    truncated: int
    checks: tuple  # CheckResult entries, in a fixed order
    tau_mean_bracket: tuple | None = None  # (completed-only mean, truncated-at-cap mean)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _chunk_rng(seed: int, chunk_index: int, substream: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index, substream))
    return np.random.Generator(np.random.Philox(ss))


def _path_dtype(cfg: SimConfig):
    """int32 when no position can reach 2^31 within max_steps, else int64.
    A walk has a nonzero jump, so tau <= max_steps stays below the bound too."""
    jump = max(max(abs(a), abs(b)) for a, b, _ in cfg.walk.atoms)
    return np.int32 if max(cfg.start) + cfg.max_steps * jump < 2**31 else np.int64


def _atom_table(atoms):
    """(cum, table, split) for the draws of a walk: the cumulative
    probabilities, each bucket's atom (the one of its lowest double) and
    whether an edge of cum lies inside the bucket."""
    cum = np.cumsum(np.array([float(p) for _, _, p in atoms]))
    cum[-1] = 1.0
    lo = np.arange(ATOM_TABLE) / ATOM_TABLE  # bucket edges are exact dyadics
    table = np.searchsorted(cum, lo, side="right")
    split = table != np.searchsorted(cum, lo + 1 / ATOM_TABLE, side="left")
    return cum, table, split


#: keeps the top log2(ATOM_TABLE) bits of a raw draw, its bucket
_BUCKET_SHIFT = np.uint64(64 - (ATOM_TABLE.bit_length() - 1))


def _exact_atoms(cum, raw: np.ndarray) -> np.ndarray:
    """The atom of each raw draw by searchsorted on its double."""
    return np.searchsorted(cum, (raw >> np.uint64(11)) * 2.0**-53, side="right")


def _table_sampler(atoms, *columns):
    """sample(raw): for each raw 64-bit draw, the entry of each column (an
    array of one value per atom) at the draw's atom.  The atom is the number
    of cumulative-probability edges <= u for the double
    u = (raw >> 11) * 2**-53 that Generator.random makes of the same draw,
    as np.searchsorted(cum, u, side="right") gives it.  The top 12 bits of
    raw are the bucket floor(u * ATOM_TABLE); per-bucket tables of the
    columns answer the draws whose bucket holds no edge, searchsorted the
    few in the buckets that do.  Only a walk with an edge inside some
    bucket tests its draws for one; a walk whose probabilities are
    multiples of 1 / ATOM_TABLE (every dyadic walk up to that) has none.
    Reading the bucket off the bits spares a float-to-integer conversion
    that cost about as much as the draw."""
    cum, table, split = _atom_table(atoms)
    tables = [c.take(table) for c in columns]
    edges = bool(split.any())

    def sample(raw: np.ndarray) -> list:
        bucket = (raw >> _BUCKET_SHIFT).view(np.intp)
        out = [t.take(bucket) for t in tables]
        if edges:
            fix = np.flatnonzero(split.take(bucket))
            if fix.size:
                j = _exact_atoms(cum, raw[fix])
                for o, c in zip(out, columns):
                    o[fix] = c.take(j)
        return out

    return sample


def _simulate_exits(cfg: SimConfig):
    """Exit time and exit point for every path.

    Returns (tau, exit_y, truncated_mask): truncated paths carry
    tau = max_steps and their last position instead of an exit point.  The
    integer arrays have the dtype _path_dtype picks for the config.

    Chunks are taken in groups of up to CHUNK // BLOCK_SWITCH.  Each chunk
    of a group first steps alone, until at most CHUNK // (group size) of its
    paths survive; the chunks that stopped early then step alone up to the
    step of the latest one.  From there the survivors of the whole group,
    at most CHUNK paths, step as one array ordered by (chunk, path), and a
    step hands each chunk's survivors the next draws of the chunk's own
    stream, in path order.

    While more than BLOCK_SWITCH paths of an array survive, each step draws
    one row, one draw per survivor, adds the jumps in place and compacts
    the array only when some path exited.  Below that, a block of k steps
    takes k draws per survivor of each chunk, row by row from the chunk's
    buffer, and is advanced with a cumulative sum; the rows after the first
    one with an exit in any chunk are discarded and their draws go back to
    the chunks' buffers.  A buffer takes at least DRAW_BATCH draws from its
    stream at a time.  Philox draws concatenate, so either way path i
    consumes exactly the draws that one-at-a-time stepping would give it.
    The first block after single steps has k = 2; after a block without an
    exit k doubles, and after an exit at row r it becomes 2*(r+1), capped
    by the steps left and by BLOCK_DRAWS."""
    # imported here: the simulator's import path does not load logging
    import logging

    log = logging.getLogger(__name__)
    debug = log.isEnabledFor(logging.DEBUG)
    dtype = _path_dtype(cfg)
    jumps = _table_sampler(
        cfg.walk.atoms,
        np.array([a for a, _, _ in cfg.walk.atoms], dtype=dtype),
        np.array([b for _, b, _ in cfg.walk.atoms], dtype=dtype),
    )
    tau = np.empty(cfg.paths, dtype=dtype)
    exit_y = np.empty((cfg.paths, 2), dtype=dtype)
    exit_y1, exit_y2 = exit_y[:, 0], exit_y[:, 1]  # 1-D views scatter faster
    truncated = np.zeros(cfg.paths, dtype=bool)
    n_chunks = (cfg.paths + CHUNK - 1) // CHUNK
    group = min(n_chunks, CHUNK // BLOCK_SWITCH)
    park = CHUNK // group

    def record(s: _Survivors, out: np.ndarray, t: int):
        """Take the paths marked in out off s, at time t."""
        done, y1, y2 = s.remove(out)
        tau[done] = t
        exit_y1[done] = y1
        exit_y2[done] = y2
        return done

    def advance(s: _Survivors, stop: int, until: int):
        """Step s until at most stop of its paths survive or it is at step until."""
        k = 1
        while s.idx.size > max(stop, BLOCK_SWITCH) and s.step < until:
            dx, dy = jumps(s.draws(1))
            s.consume(1)
            s.x += dx
            s.y += dy
            del dx, dy  # free them before the exits allocate
            out = np.minimum(s.x, s.y) <= 0
            if out.any():
                record(s, out, s.step)
            k = 2
        while s.idx.size > stop and s.step < until:
            n = s.idx.size
            k = min(k, until - s.step, BLOCK_DRAWS // n)
            bx, by = jumps(s.draws(k))
            bx, by = bx.reshape(k, n), by.reshape(k, n)
            if k > 1:  # a one-row cumsum would only copy
                bx, by = bx.cumsum(axis=0, dtype=dtype), by.cumsum(axis=0, dtype=dtype)
            bx += s.x
            by += s.y
            out = (bx <= 0) | (by <= 0)
            hit = out.any(axis=1)
            r = int(hit.argmax()) if hit.any() else k - 1
            s.consume(r + 1)
            s.x, s.y = bx[r], by[r]
            if not hit[r]:
                k *= 2
                continue
            record(s, out[r], s.step)
            k = 2 * (r + 1)

    def finish(parked: list):
        """Step a group of parked chunks, (index, survivors, seconds) each,
        to the end, and log each chunk."""
        started = time.perf_counter()
        sync = max(p.step for _, p, _ in parked)
        for _, p, _ in parked:
            advance(p, 0, sync)
        s = _Survivors.join([p for _, p, _ in parked])
        advance(s, 0, cfg.max_steps)
        truncated[record(s, np.ones(s.idx.size, dtype=bool), cfg.max_steps)] = True
        if debug:
            _log_group(log, parked, sync, tau, truncated, cfg, time.perf_counter() - started)

    parked = []
    for ci in range(n_chunks):
        started = time.perf_counter()
        lo, hi = ci * CHUNK, min((ci + 1) * CHUNK, cfg.paths)
        s = _Survivors(_chunk_rng(cfg.seed, ci), lo, hi - lo, cfg.start, dtype)
        advance(s, park, cfg.max_steps)
        parked.append((ci, s, time.perf_counter() - started))
        if len(parked) == group or ci + 1 == n_chunks:
            finish(parked)
            parked = []
    return tau, exit_y, truncated


class _Survivors:
    """The paths of one or more chunks that have neither exited nor reached
    the cap, all at one step, as one array ordered by (chunk, path).  Each
    chunk keeps its own stream, its buffer of drawn but unused draws, its
    first path index and its count of survivors; idx holds each path's
    offset within its chunk, and a joint array's slot each path's chunk
    (its position in the lists)."""

    def __init__(self, rng, lo: int, size: int, start, dtype):
        self.rng = [rng]
        self.buf = [np.empty(0, dtype=np.uint64)]
        self.lo = np.array([lo])
        self.counts = np.array([size])
        self.step = 0
        self.idx = np.arange(size, dtype=np.min_scalar_type(CHUNK - 1))
        self.slot = None
        self.x = np.full(size, start[0], dtype=dtype)
        self.y = np.full(size, start[1], dtype=dtype)

    @classmethod
    def join(cls, parts: list) -> _Survivors:
        """The survivors of parts, whose chunks are at one step, as one array."""
        if len(parts) == 1:
            return parts[0]
        s = object.__new__(cls)
        s.rng = [r for p in parts for r in p.rng]
        s.buf = [b for p in parts for b in p.buf]
        s.lo = np.concatenate([p.lo for p in parts])
        s.counts = np.concatenate([p.counts for p in parts])
        s.step = max(p.step for p in parts)  # a chunk left behind has no survivors
        s.idx = np.concatenate([p.idx for p in parts])
        # a group holds at most CHUNK // BLOCK_SWITCH = 128 chunks
        s.slot = np.repeat(np.arange(s.counts.size, dtype=np.uint8), s.counts)
        s.x = np.concatenate([p.x for p in parts])
        s.y = np.concatenate([p.y for p in parts])
        return s

    def draws(self, k: int) -> np.ndarray:
        """k rows of draws, flattened; in row r, each chunk's n survivors
        get the chunk's draws r*n .. r*n + n - 1 from its buffer."""
        rows = []
        for g, n in enumerate(self.counts.tolist()):
            if not n:
                continue
            need = k * n
            b = self.buf[g]
            if b.size < need:
                fresh = self.rng[g].bit_generator.random_raw(max(need - b.size, DRAW_BATCH))
                b = self.buf[g] = np.concatenate((b, fresh)) if b.size else fresh
            rows.append(b[:need].reshape(k, n))
        return (rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)).ravel()

    def consume(self, steps: int):
        """Take the first steps rows of the last draws off the buffers."""
        for g, n in enumerate(self.counts.tolist()):
            self.buf[g] = self.buf[g][steps * n :]
        self.step += steps

    def remove(self, out: np.ndarray):
        """Take out the paths that out marks; returns their path indices
        and positions."""
        # gathers by index: masks of many exits index several times slower
        gone, kept = np.flatnonzero(out), np.flatnonzero(~out)
        if self.slot is None:
            self.counts = self.counts - gone.size
            done = self.lo[0] + self.idx.take(gone)
        else:
            slot = self.slot.take(gone)
            self.counts = self.counts - np.bincount(slot, minlength=self.counts.size)
            done = self.lo.take(slot) + self.idx.take(gone)
            self.slot = self.slot.take(kept)
        ex, ey = self.x.take(gone), self.y.take(gone)
        self.idx, self.x, self.y = self.idx.take(kept), self.x.take(kept), self.y.take(kept)
        return done, ex, ey


def _log_group(log, parked: list, sync: int, tau, truncated, cfg: SimConfig, joint_seconds: float):
    """A debug line for each chunk of a finished group.  A chunk's time is
    its own steps plus the group's joint steps, from step sync on, shared
    out by path-steps."""
    taus = [tau[ci * CHUNK : min((ci + 1) * CHUNK, cfg.paths)] for ci, _, _ in parked]
    joint = [int(np.maximum(t.astype(np.int64) - sync, 0).sum()) for t in taus]
    total = max(sum(joint), 1)
    for (ci, _, seconds), t, share in zip(parked, taus, joint):
        lo = ci * CHUNK
        seconds += joint_seconds * share / total
        _log_chunk(log, ci, t, int(truncated[lo : lo + t.size].sum()), cfg.max_steps, seconds)


def _log_chunk(log, ci: int, tau: np.ndarray, n_trunc: int, max_steps: int, seconds: float):
    """One debug line for a finished chunk: survivors after each dyadic
    step count, truncated paths and path-steps per second."""
    survivors = []
    s = 1
    while s < max_steps:
        left = int((tau > s).sum())
        if not left:
            break
        survivors.append(f"{s}:{left}")
        s *= 2
    steps = int(tau.sum(dtype=np.int64))
    log.debug(
        "sim chunk %d: %d paths, survivors %s, truncated %d, %.3g steps/s",
        ci, tau.size, " ".join(survivors) or "none", n_trunc, steps / max(seconds, 1e-9),
    )


def _pullback_value(poly: Poly, w: WalkSpec, y: tuple) -> float:
    """Evaluate a polynomial over the field of the walk's cone at a quadrant
    lattice point, exactly where the field allows, then convert to float."""
    return float(poly.evaluate(*w.map_point(*y)))


def _mean_se(values: np.ndarray):
    """np.mean(values) and np.std(values, ddof=1) / sqrt(n), from one sum:
    the float64 sum that both take, divided by n, is the mean np.std uses."""
    mean = np.add.reduce(values, dtype=np.float64, keepdims=True) / values.size
    if values.size > 1:
        se = float(np.std(values, ddof=1, mean=mean) / math.sqrt(values.size))
    else:
        se = 0.0
    return float(mean[0]), se


def _zpass(est: float, se: float, target: float):
    z = (est - target) / se if se > 0 else (0.0 if est == target else math.inf)
    return z, abs(z) <= 3.0


def sample_exit(cfg: SimConfig) -> SimReport:
    """Run the configured checks and compare against the exact targets.

    The expected-exit-time check reports a bracket: the mean over completed
    paths and the mean with truncated paths counted at the step cap; it
    passes when the exact value lies within 3 standard errors of the
    bracket.  Exit-position estimates use completed paths only.
    """
    w = cfg.walk
    cone = w.cone
    need_sim = any(c in cfg.checks for c in ("tau-mean", "tau-second", "exit-position", "tail"))
    # the builders' own finiteness rule, asked before paying for the simulation
    if "tau-mean" in cfg.checks and not cone.admits(2):
        raise MomentCheckInvalid(f"E[tau] infinite (needs 2 < pi/alpha): {cone.refusal(2)}")
    if "tau-second" in cfg.checks and not cone.admits(4):
        raise MomentCheckInvalid(f"E[tau^2] infinite (needs 4 < pi/alpha): {cone.refusal(4)}")
    if "exit-position" in cfg.checks and not cone.admits(2):
        raise MomentCheckInvalid("exit-position second moments require opening < pi/2")
    tau = exit_y = truncated = None
    if need_sim:
        tau, exit_y, truncated = _simulate_exits(cfg)
    results = []
    bracket = None
    n_trunc = int(truncated.sum()) if truncated is not None else 0

    if "tau-mean" in cfg.checks:
        mu = push_moments(w, 2)
        g1 = tau_moment_poly(1, cone, mu).G
        target = _pullback_value(g1, w, cfg.start)
        # every partial sum of integer exit times below 2^53 is exact, so
        # the mean and std of tau equal those of its float64 copy
        capped = tau if cfg.paths * cfg.max_steps < 2**53 else tau.astype(np.float64)
        est_hi, se_hi = _mean_se(capped)
        done = capped[~truncated] if n_trunc else capped
        if done.size:
            est_lo, se_lo = _mean_se(done)
        else:
            est_lo, se_lo = 0.0, 0.0
        del capped, done
        bracket = (est_lo, est_hi)
        passed = est_lo - 3 * se_lo <= target <= est_hi + 3 * se_hi
        z, _ = _zpass(est_hi, se_hi, target)
        results.append(
            CheckResult(
                name="tau-mean",
                estimate=est_hi,
                std_error=se_hi,
                target=target,
                z=z,
                passed=passed,
                note=f"bracket=({est_lo:.6g},{est_hi:.6g}), truncated={n_trunc}",
            )
        )

    if "tau-second" in cfg.checks:
        mu = push_moments(w, 4)
        g2 = tau_moment_poly(2, cone, mu).G
        target = _pullback_value(g2, w, cfg.start)
        est, se = _mean_se(np.square(tau, dtype=np.float64))
        z, ok = _zpass(est, se, target)
        results.append(
            CheckResult(
                name="tau-second", estimate=est, std_error=se, target=target, z=z, passed=ok
            )
        )

    if "exit-position" in cfg.checks:
        from .exits import exit_position_moments

        ep = exit_position_moments(cone, w.map_point(*cfg.start))
        tr = w.transform
        t11, t12, t22 = (float(t) for t in (tr.t11, tr.t12, tr.t22))
        y0, y1 = exit_y[:, 0], exit_y[:, 1]
        if n_trunc:  # each column on its own: no (n, 2) copy
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
        for name, (est, se), target in (
            ("exit-mean-x1", mean1, float(ep.mean1)),
            ("exit-mean-x2", mean2, float(ep.mean2)),
            ("exit-second-x1", second1, float(ep.second1)),
            ("exit-second-x2", second2, float(ep.second2)),
        ):
            z, ok = _zpass(est, se, target)
            results.append(
                CheckResult(
                    name=name,
                    estimate=est,
                    std_error=se,
                    target=target,
                    z=z,
                    passed=ok,
                    note=f"completed paths only ({y1.size})",
                )
            )

    if "harmonicity" in cfg.checks:
        results.append(_harmonicity_check(cfg))

    if "tail" in cfg.checks:
        results.append(_tail_check(cfg, tau))

    return SimReport(
        paths=cfg.paths,
        seed=cfg.seed,
        truncated=n_trunc,
        checks=tuple(results),
        tau_mean_bracket=bracket,
    )


def _harmonicity_check(cfg: SimConfig) -> CheckResult:
    """One-step martingale check: the sample mean of h at the position after
    a single jump (zero on the boundary by construction) against h at the
    start.  The per-atom h values are computed exactly; sampling only
    chooses atoms, so the estimator is a multinomial average of exact
    numbers."""
    w = cfg.walk
    m = w.cone.m
    if m is None:
        raise MomentCheckInvalid("harmonicity check needs an integer-m wedge")
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
    se = math.sqrt(var / n)
    z, ok = _zpass(est, se, target)
    return CheckResult(
        name="harmonicity", estimate=est, std_error=se, target=target, z=z, passed=ok
    )


def _tail_check(cfg: SimConfig, tau: np.ndarray) -> CheckResult:
    slope, se, npts = _fit_tail(tau, cfg.max_steps)
    target = -cfg.walk.cone.p_alpha_float() / 2
    ok = abs(slope - target) <= TAIL_BAND
    z = (slope - target) / se if se > 0 else 0.0
    return CheckResult(
        name="tail",
        estimate=slope,
        std_error=se,
        target=target,
        z=z,
        passed=ok,
        note=f"band +/-{TAIL_BAND}, {npts} dyadic points",
    )


def _fit_tail(tau: np.ndarray, max_steps: int):
    """Least-squares slope of log survival probability against log time over
    dyadic times; truncated paths (tau = cap) legitimately count as
    survivors at every fitted time below the cap."""
    ns = []
    n = TAIL_FIT_MIN
    while n < max_steps:
        surv = np.count_nonzero(tau > n)
        if surv < TAIL_MIN_SURVIVORS:
            break
        ns.append((n, surv))
        n *= 2
    if len(ns) < 3 or not any(n > 64 for n, _ in ns):
        raise InsufficientSurvivors(
            f"only {len(ns)} usable dyadic points (need >= 3 reaching past 64 steps)"
        )
    xs = np.log([n for n, _ in ns])
    ys = np.log([s / tau.size for _, s in ns])
    slope, _intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + _intercept)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    dof = max(len(ns) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / denom) if denom > 0 else 0.0
    return float(slope), se, len(ns)

