"""Monte Carlo simulator: reproducibility, exactness cross-checks, and the
moment-finiteness guards."""

import logging
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import conewalk
from conewalk import (
    InsufficientSurvivors,
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
from conewalk import _paths, sim
from conewalk._paths import (
    BLOCK_SWITCH,
    CHUNK,
    _atom_table,
    _chunk_rng,
    _path_dtype,
    _simulate_exits,
    _table_sampler,
)
from conftest import W_A, W_B, W_C


def _reference_exits(cfg, chunk=CHUNK):
    """One draw per surviving path per step, in path order: the draw-order
    rule that _simulate_exits must reproduce exactly."""
    jumps = np.array([[a, b] for a, b, _ in cfg.walk.atoms], dtype=np.int64)
    cum = np.cumsum(np.array([float(p) for _, _, p in cfg.walk.atoms]))
    cum[-1] = 1.0
    tau = np.empty(cfg.paths, dtype=np.int64)
    exit_y = np.empty((cfg.paths, 2), dtype=np.int64)
    truncated = np.zeros(cfg.paths, dtype=bool)
    for ci in range((cfg.paths + chunk - 1) // chunk):
        lo, hi = ci * chunk, min((ci + 1) * chunk, cfg.paths)
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


def test_config_refuses_what_numpy_would_reject():
    """paths and max_steps are integers >= 1 and seed an integer >= 0;
    anything else is refused before numpy sees it."""
    for bad in ({"paths": 10.5}, {"paths": 1.0}, {"paths": "3"}, {"max_steps": 50.5}, {"seed": -1},
                {"seed": 1.5}):
        kw = {"walk": diagonal_walk(), "start": (1, 1), "paths": 10, "seed": 0, "max_steps": 100, **bad}
        with pytest.raises(ValidationError, match=next(iter(bad))):
            SimConfig(**kw)


def test_config_takes_numpy_integers():
    """numpy registers its integer types as numbers.Integral, so np.int64
    paths, seed and max_steps are taken and give the report of ints."""
    kw = {"walk": diagonal_walk(), "start": (1, 1), "checks": ("tau-mean", "harmonicity")}
    wide = SimConfig(paths=np.int64(3000), seed=np.int64(2), max_steps=np.int64(500), **kw)
    assert sample_exit(wide) == sample_exit(SimConfig(paths=3000, seed=2, max_steps=500, **kw))


@pytest.mark.filterwarnings("error")
def test_config_stores_numpy_integers_as_ints():
    """paths, seed and max_steps are stored as Python ints, so the size
    arithmetic on them cannot wrap: an np.int64 max_steps of 2**62 picks
    int64 positions, as the same int does, and warns of no overflow."""
    kw = {"walk": skewed_walk(), "start": (1, 1)}
    wide = SimConfig(paths=np.int64(5), seed=np.int64(0), max_steps=np.int64(2**62), **kw)
    narrow = SimConfig(paths=5, seed=0, max_steps=2**62, **kw)
    assert _path_dtype(wide) is _path_dtype(narrow) is np.int64
    assert [type(getattr(wide, f)) for f in ("paths", "seed", "max_steps")] == [int, int, int]
    assert wide == narrow


def test_configs_of_equal_walks_are_equal():
    """A config compares and hashes by its walk's atoms, also across a
    pickle round trip."""
    cfg = SimConfig(walk=diagonal_walk(), start=(2, 1), paths=10, seed=3, max_steps=50)
    twin = SimConfig(walk=diagonal_walk(), start=(2, 1), paths=10, seed=3, max_steps=50)
    back = pickle.loads(pickle.dumps(cfg))
    assert cfg == twin == back and hash(cfg) == hash(twin) == hash(back)
    assert cfg != SimConfig(walk=simple_walk(), start=(2, 1), paths=10, seed=3, max_steps=50)


def test_tail_refused_before_stepping_when_no_run_can_meet_its_rule(monkeypatch):
    """Fewer than TAIL_MIN_SURVIVORS paths, or max_steps <= 128 (no dyadic
    time past 64), is refused before any path is stepped; 100 paths and
    129 steps may meet the rule, so that config steps.  A run that steps
    and misses the rule names the whole rule."""
    with pytest.raises(InsufficientSurvivors) as err:
        sample_exit(SimConfig(walk=diagonal_walk(), start=(1, 1), paths=1000, seed=0, max_steps=129,
                              checks=("tail",)))
    assert "at least 3 dyadic times from 16 steps on" in str(err.value)
    assert "past 64 steps; this run has" in str(err.value)
    stepped = []

    def spy(cfg):
        stepped.append((cfg.paths, cfg.max_steps))
        raise AssertionError("simulated")

    monkeypatch.setattr(_paths, "_simulate_exits", spy)
    for paths, max_steps in ((50, 10_000), (99, 10_000), (100_000, 128)):
        with pytest.raises(InsufficientSurvivors) as err:
            sample_exit(SimConfig(walk=diagonal_walk(), start=(1, 1), paths=paths, seed=0,
                                  max_steps=max_steps, checks=("tau-mean", "tail")))
        assert "at least 100 surviving paths" in str(err.value)
    assert not stepped
    with pytest.raises(AssertionError):
        sample_exit(SimConfig(walk=diagonal_walk(), start=(1, 1), paths=100, seed=0, max_steps=129,
                              checks=("tail",)))
    assert stepped == [(100, 129)]


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


def test_infinite_moment_guards(monkeypatch):
    """Each guard refuses before any path is stepped, also where pi/alpha
    is 2 + 1.3e-10: E[tau] ~ 1e10 there, which the builder refuses.  W_B's
    opening arccos(1/3) is not pi/m, so it has no h to check; every check
    refused comes in one message."""

    def no_simulation(cfg):
        raise AssertionError("simulated before the finiteness guard")

    monkeypatch.setattr(_paths, "_simulate_exits", no_simulation)
    eps = Fraction(1, 10**10)
    near, far = Fraction(1, 4) - eps / 4, Fraction(1, 4) + eps / 4
    w_eps = WalkSpec([(1, 1, near), (-1, -1, near), (1, -1, far), (-1, 1, far)])
    assert 0 < float(w_eps.cone.p_alpha) - 2 < 1e-9
    for w, checks in (
        (diagonal_walk(), ("tau-second",)),  # p_alpha = 3
        (simple_walk(), ("tau-mean",)),  # p_alpha = 2: even the mean is infinite
        (w_eps, ("tau-mean",)),
        (w_eps, ("exit-position",)),
        (WalkSpec(W_B), ("harmonicity", "tail")),  # tail reads simulated paths
    ):
        with pytest.raises(MomentCheckInvalid):
            sample_exit(SimConfig(walk=w, start=(1, 1), paths=10, seed=0, checks=checks))
    with pytest.raises(MomentCheckInvalid) as err:
        sample_exit(SimConfig(walk=WalkSpec(W_B), start=(1, 1), paths=10, seed=0,
                              checks=sim.KNOWN_CHECKS))
    refused = [part.split()[0] for part in str(err.value).split("; ")]
    assert refused == ["tau-second", "harmonicity"]  # pi/alpha = 2.55


def test_near_resonant_refusal_reads_apart_from_resonant():
    """pi/alpha = 2 + 1.3e-10 is refused by RESONANCE_GUARD alone, and the
    message says so instead of printing pi/alpha as 2."""
    eps = Fraction(1, 10**10)
    near, far = Fraction(1, 4) - eps / 4, Fraction(1, 4) + eps / 4
    w_eps = WalkSpec([(1, 1, near), (-1, -1, near), (1, -1, far), (-1, 1, far)])
    with pytest.raises(MomentCheckInvalid) as err:
        sample_exit(SimConfig(walk=w_eps, start=(1, 1), paths=10, seed=0, checks=("tau-mean",)))
    assert "pi/alpha = 2 + 1.3e-10" in str(err.value) and "RESONANCE_GUARD" in str(err.value)
    with pytest.raises(MomentCheckInvalid) as err:
        sample_exit(SimConfig(walk=diagonal_walk(), start=(1, 1), paths=10, seed=0,
                              checks=("tau-second",)))
    assert "pi/alpha = 3 <= 4" in str(err.value)


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
        # edges of the cumulative probabilities inside atom-table buckets
        pytest.param(lambda: WalkSpec(W_A), (1, 2), 20000, 1000, id="W_A"),
        pytest.param(lambda: WalkSpec(W_C), (2, 1), 20000, 1000, id="W_C"),
    ],
)
def test_block_stepping_matches_one_step_reference(walk, start, paths, max_steps):
    cfg = SimConfig(walk=walk(), start=start, paths=paths, seed=11, max_steps=max_steps, checks=())
    got = _simulate_exits(cfg)
    want = _reference_exits(cfg)
    for g, w in zip(got, want):
        assert g.dtype == (bool if w.dtype == bool else _path_dtype(cfg)) and (g == w).all()
    tau, _, truncated = want
    # every chunk starts above the single-step threshold and ends below it
    assert paths % CHUNK > BLOCK_SWITCH and truncated.sum() < BLOCK_SWITCH
    if walk is not skewed_walk:
        assert truncated.any() and (tau[truncated] == max_steps).all()


@pytest.mark.parametrize(
    "make_walk, edges", [(skewed_walk, False), (lambda: WalkSpec(W_A), True)], ids=["dyadic", "W_A"]
)
def test_jump_sampler_matches_searchsorted(make_walk, edges):
    """The jump of each raw word is the one of the atom that searchsorted
    finds for the word's double, also for words on and beside each edge."""
    atoms = make_walk().atoms
    assert _atom_table(atoms)[2].any() == edges
    jumps = np.array([[a, b] for a, b, _ in atoms])
    cum = np.cumsum(np.array([float(p) for _, _, p in atoms]))
    cum[-1] = 1.0
    edge = (cum[:-1] * 2.0**53).astype(np.int64)  # the 53-bit word of each edge
    near = [((edge + d) << 11).astype(np.uint64) for d in range(-2, 3)]
    raw = np.concatenate([_chunk_rng(3, 0).bit_generator.random_raw(10**5), *near])
    want = jumps[np.searchsorted(cum, (raw >> np.uint64(11)) * 2.0**-53, side="right")]
    dx, dy = _table_sampler(atoms, *jumps.T.astype(np.int32))(raw)
    assert (dx == want[:, 0]).all() and (dy == want[:, 1]).all()


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_mean_se_equals_numpy(dtype):
    """_mean_se reads the mean off the sum that np.std takes, so it must
    equal np.mean and np.std(ddof=1) / sqrt(n) bit for bit; a numpy whose
    np.std sums otherwise fails here instead of moving the reports."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 127, 128, 129, 8191, 8192, 8193, 65537, 10**6):
        if dtype is np.float64:
            v = rng.standard_normal(n) * 1e3 + 7.5
        else:
            v = rng.integers(1, np.iinfo(dtype).max // 2, n, dtype=dtype)
        est, se = _paths._mean_se(v)
        assert est.hex() == float(np.mean(v)).hex(), n
        want = float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert se.hex() == want.hex(), n


def _matches_reference(cfg, chunk=CHUNK):
    got = _simulate_exits(cfg)
    want = _reference_exits(cfg, chunk)
    for g, w in zip(got, want):
        assert (g == w).all()
    return want


def _park_steps(cfg, tau, chunk=CHUNK):
    """The step at which each chunk stops stepping alone: the first at which
    at most chunk // (group size) of its paths survive, or the cap."""
    n_chunks = (cfg.paths + chunk - 1) // chunk
    park = chunk // min(n_chunks, chunk // BLOCK_SWITCH)
    steps = []
    for lo in range(0, cfg.paths, chunk):
        t = np.sort(tau[lo : lo + chunk])
        steps.append(0 if t.size <= park else int(t[t.size - park - 1]))
    return steps


def test_joint_tail_chunks_park_at_different_steps():
    """The partial chunk parks first and steps alone up to the full ones."""
    cfg = SimConfig(walk=simple_walk(), start=(2, 1), paths=2 * CHUNK + 30000, seed=12,
                    max_steps=400, checks=())
    tau, _, truncated = _matches_reference(cfg)
    first, second, last = _park_steps(cfg, tau)
    assert first == second > last > 0 and truncated.any()


def test_joint_tail_chunk_capped_while_alone():
    """Chunk 0 still has more than its park threshold of survivors at the
    cap, so it never steps jointly; the small chunk catches up to the cap."""
    cfg = SimConfig(walk=simple_walk(), start=(3, 3), paths=CHUNK + 2000, seed=12,
                    max_steps=3, checks=())
    tau, _, truncated = _matches_reference(cfg)
    assert _park_steps(cfg, tau) == [3, 0]
    assert truncated[:CHUNK].sum() > CHUNK // 2


def test_joint_tail_partial_chunk_below_block_switch():
    """A last chunk of 300 paths parks at once and takes blocks of steps
    alone up to the full chunks' park step."""
    cfg = SimConfig(walk=diagonal_walk(), start=(1, 1), paths=2 * CHUNK + 300, seed=12,
                    max_steps=500, checks=())
    tau, _, _ = _matches_reference(cfg)
    first, second, last = _park_steps(cfg, tau)
    assert last == 0 < first and 300 < BLOCK_SWITCH


def test_joint_tail_more_chunks_than_one_group(monkeypatch):
    """With 2048-path chunks a group holds 2048 // BLOCK_SWITCH = 4 chunks,
    so 11 chunks step their tails in three groups."""
    monkeypatch.setattr(_paths, "CHUNK", 2048)
    cfg = SimConfig(walk=diagonal_walk(), start=(2, 1), paths=10 * 2048 + 700, seed=13,
                    max_steps=300, checks=())
    tau, _, truncated = _matches_reference(cfg, chunk=2048)
    assert 2048 // BLOCK_SWITCH == 4 and truncated.any()
    assert len(set(_park_steps(cfg, tau, chunk=2048))) > 1


def test_import_leaves_numpy_unloaded():
    """Importing the package and the CLI adds no heavy module to those a
    bare interpreter has (site preloads typing on some hosts), and neither
    do the simulator's names."""
    slow = ("dataclasses", "inspect", "logging", "typing", "numpy", "mpmath")
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import conewalk, conewalk.cli\n"
        f"added = sorted(set({slow!r}) & set(sys.modules) - bare)\n"
        "assert not added, f'loaded by import conewalk, conewalk.cli: {added}'\n"
        "from conewalk import SimConfig\n"
        "assert SimConfig.__module__ == 'conewalk.sim' and 'numpy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_simulator_loads_numpy_with_the_first_step():
    """Configs, the check table, every refusal and the simulate help run
    without numpy; a run that steps one path loads it."""
    code = """
import pickle, sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

def no_numpy(step):
    assert 'numpy' not in sys.modules, f'numpy loaded by {step}'

import conewalk.sim
no_numpy('import conewalk.sim')
from conewalk import (InsufficientSurvivors, MomentCheckInvalid, SimConfig, StartNotInterior,
                      ValidationError, diagonal_walk, sample_exit, simple_walk)
from conewalk.cli import main
from conewalk.sim import KNOWN_CHECKS

cfg = SimConfig(walk=diagonal_walk(), start=(1, 1), paths=1, seed=0, max_steps=10)
back = pickle.loads(pickle.dumps(cfg))
assert back == cfg and back.checks == KNOWN_CHECKS[:1] == ('tau-mean',)
no_numpy('a SimConfig, its pickle round trip and KNOWN_CHECKS')
for walk, check, error, paths in ((simple_walk(), 'tau-mean', MomentCheckInvalid, 10),
                                  (diagonal_walk(), 'tau-second', MomentCheckInvalid, 10),
                                  (diagonal_walk(), 'tail', InsufficientSurvivors, 50)):
    try:
        sample_exit(SimConfig(walk=walk, start=(1, 1), paths=paths, seed=0, checks=(check,)))
    except error:
        no_numpy(f'the {check} refusal')
    else:
        raise AssertionError(f'{check} not refused')
for kw, error in (({'paths': 0}, ValidationError), ({'start': (0, 1)}, StartNotInterior)):
    try:
        SimConfig(**{'walk': diagonal_walk(), 'start': (1, 1), 'paths': 1, 'seed': 0, **kw})
    except error:
        no_numpy(f'the {error.__name__} of {kw}')
    else:
        raise AssertionError(f'{kw} not refused')
with redirect_stdout(StringIO()) as out:
    try:
        main(['simulate', '--help'])
    except SystemExit as e:
        assert e.code == 0, e.code
assert 'tau-mean' in out.getvalue(), 'simulate --help lists no checks'
no_numpy('simulate --help')
with redirect_stderr(StringIO()):
    assert main(['simulate', '--walk', 'simple', '--check', 'tau-mean']) == 2
no_numpy('a refused simulate command')
sample_exit(SimConfig(walk=diagonal_walk(), start=(1, 1), paths=1, seed=0, max_steps=10))
assert 'numpy' in sys.modules, 'a run that steps loaded no numpy'
"""
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CONE_LOG", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_logging_unloaded():
    """The solver's and the simulator's checks for debug output load nothing."""
    code = (
        "import sys, conewalk\n"
        "conewalk.construct_harmonic(6, conewalk.push_moments(conewalk.diagonal_walk(), 6))\n"
        "assert 'logging' not in sys.modules, 'logging loaded by an exact build'\n"
        "conewalk.sample_exit(conewalk.SimConfig(walk=conewalk.diagonal_walk(), start=(1, 1),\n"
        "                                        paths=200, seed=1, max_steps=50, checks=('tau-mean',)))\n"
        "assert 'logging' not in sys.modules, 'logging loaded by sample_exit'\n"
    )
    src = os.path.dirname(os.path.dirname(conewalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pinned_report():
    """Every float of a fixed report, as its exact hex form.  The config has
    three chunks, the last one partial, and one path truncated at the cap."""
    cfg = SimConfig(walk=diagonal_walk(), start=(1, 1), paths=2 * CHUNK + 777, seed=9,
                    max_steps=1000, checks=("tau-mean", "exit-position", "harmonicity"))
    rep = sample_exit(cfg)
    assert (rep.paths, rep.seed, rep.truncated) == (2 * CHUNK + 777, 9, 1)
    assert [v.hex() for v in rep.tau_mean_bracket] == ["0x1.e9e481ab781dfp+0", "0x1.ebd49bd97c72ap+0"]
    completed = "completed paths only (131848)"
    assert [
        (c.name, c.estimate.hex(), c.std_error.hex(), c.target.hex(), c.z.hex(), c.passed, c.note)
        for c in rep.checks
    ] == [
        ("tau-mean", "0x1.ebd49bd97c72ap+0", "0x1.6eb0ccbe346b2p-6", "0x1.0000000000000p+1",
         "-0x1.c29802c018037p+1", False, "bracket=(1.91364,1.92121), truncated=1"),
        ("exit-mean-x1", "0x1.bb78538aff875p+0", "0x1.efe42b958267dp-9", "0x1.bb67ae8584caap+0",
         "0x1.12f701d47f054p-4", True, completed),
        ("exit-mean-x2", "0x1.fc8f36f0bb246p-1", "0x1.ecaf04a4d4329p-9", "0x1.0000000000000p+0",
         "-0x1.c9a8ad17888bap+0", True, completed),
        ("exit-second-x1", "0x1.38d6aff2a98c6p+2", "0x1.27b01c56ac766p-4", "0x1.4000000000000p+2",
         "-0x1.8ccf6ee71f213p+0", True, completed),
        ("exit-second-x2", "0x1.6cbc32c3105b3p+1", "0x1.25b87c355ab8ep-5", "0x1.8000000000000p+1",
         "-0x1.0ca7138cacee5p+2", False, completed),
        ("harmonicity", "0x1.fc44a9cc516e7p+2", "0x1.dc065edaf4db4p-5", "0x1.0000000000000p+3",
         "-0x1.00e2436afa28cp+0", True, ""),
    ]


def test_path_dtype_boundary():
    """int32 exactly while max(start) + max_steps * max|jump| < 2^31."""
    d = diagonal_walk()  # largest jump 1
    big = WalkSpec([(2, 0, Fraction(1, 10)), (-1, 0, Fraction(1, 5)), (0, 1, Fraction(3, 10)),
                    (0, -1, Fraction(3, 10)), (0, 0, Fraction(1, 10))])  # largest jump 2

    def dtype(walk, start, max_steps):
        return _path_dtype(SimConfig(walk=walk, start=start, paths=1, seed=0, max_steps=max_steps))

    assert dtype(d, (1, 1), 2**31 - 2) == np.int32
    assert dtype(d, (1, 1), 2**31 - 1) == np.int64
    assert dtype(d, (1, 5), 2**31 - 6) == np.int32
    assert dtype(d, (1, 5), 2**31 - 5) == np.int64
    assert dtype(big, (1, 1), 2**30 - 1) == np.int32
    assert dtype(big, (1, 1), 2**30) == np.int64
    assert dtype(d, (1, 1), 10_000_000) == np.int32  # the default cap


def test_int64_paths_match_int32_paths():
    """A cap past the int32 range switches the arrays to int64 and changes
    no value while no path reaches the cap."""
    w = skewed_walk()  # largest jump 2
    narrow = SimConfig(walk=w, start=(1, 1), paths=3000, seed=6, max_steps=2**30 - 1, checks=())
    wide = SimConfig(walk=w, start=(1, 1), paths=3000, seed=6, max_steps=2**30, checks=())
    got32, got64 = _simulate_exits(narrow), _simulate_exits(wide)
    assert got32[0].dtype == got32[1].dtype == np.int32
    assert got64[0].dtype == got64[1].dtype == np.int64
    assert not got64[2].any()
    for a, b in zip(got32, got64):
        assert (a == b).all()


def test_sample_exit_peak_bytes_per_path():
    """The traced peak of a tau-mean and exit-position run on 2^18 paths.
    Int64 path arrays with four float64 samples alive at once took 97 bytes
    per path; int32 arrays with one float sample at a time take 33.

    This bounds the traced (tracemalloc) peak only, not the resident peak
    that the benchmark's peak_rss_mb reads.  glibc keeps and fragments
    freed heap: the million-path diagonal job alone traces a 32.6 MB peak
    but raises the resident set by 44.5 MB, keeps 19.0 MB resident after
    it ends, and malloc_trim(0) then frees 10.0 MB (README, "Simulator
    reproducibility")."""
    walk = diagonal_walk()

    def cfg(paths):
        return SimConfig(walk=walk, start=(1, 1), paths=paths, seed=3, max_steps=1000,
                         checks=("tau-mean", "exit-position"))

    sample_exit(cfg(2000))  # the exact targets' own allocations come and go here
    tracemalloc.start()
    try:
        rep = sample_exit(cfg(2**18))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.truncated > 0  # the completed-path copy is part of the peak
    assert peak / 2**18 < 60


def test_chunk_debug_lines(caplog):
    cfg = SimConfig(walk=diagonal_walk(), start=(1, 1), paths=CHUNK + 100, seed=4,
                    max_steps=64, checks=())
    with caplog.at_level(logging.WARNING, logger="conewalk.sim"):
        quiet = _simulate_exits(cfg)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="conewalk.sim"):
        loud = _simulate_exits(cfg)
    for a, b in zip(quiet, loud):
        assert (a == b).all()
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    assert lines[0].startswith(f"sim chunk 0: {CHUNK} paths, survivors 1:")
    assert lines[1].startswith("sim chunk 1: 100 paths, survivors 1:")
    tau, _, truncated = quiet
    assert f"truncated {int(truncated[:CHUNK].sum())}," in lines[0]
    assert " 32:" in lines[0] and " 64:" not in lines[0] and lines[0].endswith(" steps/s")
