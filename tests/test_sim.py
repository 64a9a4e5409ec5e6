"""Monte Carlo simulator: reproducibility, exactness cross-checks, and the
moment-finiteness guards."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import conewalk
from conewalk import (
    MomentCheckInvalid,
    SimConfig,
    StartNotInterior,
    ValidationError,
    WalkSpec,
    diagonal_walk,
    sample_exit,
    simple_walk,
    skewed_walk,
)
from conewalk.sim import BLOCK_SWITCH, CHUNK, _chunk_rng, _simulate_exits


def _reference_exits(cfg):
    """One draw per surviving path per step, in path order: the draw-order
    rule that _simulate_exits must reproduce exactly."""
    jumps = np.array([[a, b] for a, b, _ in cfg.walk.atoms], dtype=np.int64)
    cum = np.cumsum(np.array([float(p) for _, _, p in cfg.walk.atoms]))
    cum[-1] = 1.0
    tau = np.empty(cfg.paths, dtype=np.int64)
    exit_y = np.empty((cfg.paths, 2), dtype=np.int64)
    truncated = np.zeros(cfg.paths, dtype=bool)
    for ci in range((cfg.paths + CHUNK - 1) // CHUNK):
        lo, hi = ci * CHUNK, min((ci + 1) * CHUNK, cfg.paths)
        rng = _chunk_rng(cfg.seed, ci)
        idx = np.arange(lo, hi)
        pos = np.tile(np.array(cfg.start, dtype=np.int64), (hi - lo, 1))
        for step in range(1, cfg.max_steps + 1):
            if not idx.size:
                break
            pos += jumps[np.searchsorted(cum, rng.random(idx.size), side="right")]
            out = (pos[:, 0] <= 0) | (pos[:, 1] <= 0)
            tau[idx[out]] = step
            exit_y[idx[out]] = pos[out]
            idx, pos = idx[~out], pos[~out]
        tau[idx] = cfg.max_steps
        exit_y[idx] = pos
        truncated[idx] = True
    return tau, exit_y, truncated


def test_config_validation():
    w = diagonal_walk()
    with pytest.raises(StartNotInterior):
        SimConfig(walk=w, start=(0, 1), paths=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(walk=w, start=(1, 1), paths=10, seed=0, checks=("bogus",))


def test_degenerate_walk_exits_in_one_step():
    w = WalkSpec([(2, -1, Fraction(1, 3)), (-1, 2, Fraction(1, 3)), (-1, -1, Fraction(1, 3))])
    cfg = SimConfig(walk=w, start=(1, 1), paths=2000, seed=3, checks=())
    tau, exit_y, trunc = _simulate_exits(cfg)
    assert (tau == 1).all() and not trunc.any()


def test_bit_identical_reports():
    cfg = SimConfig(walk=diagonal_walk(), start=(1, 1), paths=30000, seed=5,
                    checks=("tau-mean",))
    r1, r2 = sample_exit(cfg), sample_exit(cfg)
    assert r1 == r2


def test_chunking_invariance():
    """The per-chunk RNG streams make results depend only on (seed, path
    index), so doubling the path count extends rather than reshuffles."""
    w = diagonal_walk()
    small = SimConfig(walk=w, start=(1, 1), paths=65536, seed=7, checks=())
    big = SimConfig(walk=w, start=(1, 1), paths=131072, seed=7, checks=())
    t1, _, _ = _simulate_exits(small)
    t2, _, _ = _simulate_exits(big)
    assert (t2[:65536] == t1).all()


def test_infinite_moment_guards():
    w = diagonal_walk()  # p_alpha = 3
    with pytest.raises(MomentCheckInvalid):
        sample_exit(SimConfig(walk=w, start=(1, 1), paths=10, seed=0, checks=("tau-second",)))
    w2 = simple_walk()  # p_alpha = 2: even the mean is infinite
    with pytest.raises(MomentCheckInvalid):
        sample_exit(SimConfig(walk=w2, start=(1, 1), paths=10, seed=0, checks=("tau-mean",)))


def test_harmonicity_check_passes():
    for w in (diagonal_walk(), skewed_walk()):
        cfg = SimConfig(walk=w, start=(2, 3), paths=50000, seed=2, checks=("harmonicity",))
        rep = sample_exit(cfg)
        assert rep.all_passed()


def test_skewed_walk_tau_mean():
    """E[tau] = 4 from (1,1): G_1 pulled back through T = 2*I + shear."""
    cfg = SimConfig(walk=skewed_walk(), start=(1, 1), paths=200000, seed=4,
                    max_steps=1_000_000, checks=("tau-mean",))
    rep = sample_exit(cfg)
    (c,) = rep.checks
    assert c.target == 4.0
    assert rep.all_passed()


@pytest.mark.parametrize(
    "walk, start, paths, max_steps",
    [
        # two chunks, the second partial; the cap falls inside a block
        (simple_walk, (1, 1), CHUNK + 3001, 1237),
        (diagonal_walk, (2, 1), 5000, 151),
        (skewed_walk, (1, 2), 70001, 100_000),
    ],
)
def test_block_stepping_matches_one_step_reference(walk, start, paths, max_steps):
    cfg = SimConfig(walk=walk(), start=start, paths=paths, seed=11, max_steps=max_steps, checks=())
    got = _simulate_exits(cfg)
    want = _reference_exits(cfg)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and (g == w).all()
    tau, _, truncated = want
    # every chunk starts above the single-step threshold and ends below it
    assert paths % CHUNK > BLOCK_SWITCH and truncated.sum() < BLOCK_SWITCH
    if walk is not skewed_walk:
        assert truncated.any() and (tau[truncated] == max_steps).all()


def test_import_leaves_numpy_unloaded():
    code = (
        "import sys, conewalk, conewalk.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by import conewalk'\n"
        "from conewalk import SimConfig\n"
        "assert SimConfig.__module__ == 'conewalk.sim' and 'numpy' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
