"""The benchmark's workloads: inputs made from the workload seed, the jobs of
one pass, and the check of every job's output.

Each pass gets fresh walk, cone and MomentTable objects from ``inputs()``
and keeps them alive until it ends.  Jobs read functions from the
``conewalk`` namespace at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import conewalk as cw
import mpmath
from conewalk.jsonio import poly_to_obj

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

#: the seed the golden outputs were made with
DEFAULT_SEED = 1


def child_env() -> dict:
    """This process's environment (one-thread numeric libraries, set by
    run.py) with the package sources importable and bytecode caching on, so
    a cold start loads compiled modules as an installed package would."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Job:
    id: str
    cls: str
    fn: Callable  # fn(ctx) -> output


class Ctx:
    """What a job may read besides its inputs: earlier outputs of the same
    pass, and the tracer of a traced pass."""

    def __init__(self, tracer=None):
        self.results: dict = {}
        self.tracer = tracer


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def rational_moments(order: int, rng: random.Random) -> dict:
    """A normalized moment table: orders 0-2 fixed, every higher entry n/12
    with 16 <= |n| < 32, so coefficient sizes do not depend on the seed."""
    mu = {(k, l): Fraction(0) for k in range(order + 1) for l in range(order + 1 - k)}
    mu[(0, 0)] = mu[(2, 0)] = mu[(0, 2)] = Fraction(1)
    for key in sorted(mu):
        if sum(key) >= 3:
            mu[key] = Fraction(rng.choice((-1, 1)) * rng.randrange(16, 32), 12)
    return mu


def table(mu: dict, backend) -> "cw.MomentTable":
    order = max(k + l for k, l in mu)
    if backend.exact:
        return cw.MomentTable(order=order, mu=dict(mu), backend=backend)
    return cw.MomentTable(order=order, mu={k: backend.convert(v) for k, v in mu.items()}, backend=backend)


class Workload:
    """Why each workload exists is in BENCHMARK.json and bench/README.md."""

    name = ""
    #: fewest passes in a run, whatever --seconds says
    min_passes = 2

    def __init__(self, seed: int):
        self.seed = seed
        self._golden = None

    @property
    def golden(self) -> dict:
        if self._golden is None:
            self._golden = load_golden(self.name)
        return self._golden

    def inputs(self, pass_no: int) -> dict:
        raise NotImplementedError

    def jobs(self, inp: dict) -> list[Job]:
        raise NotImplementedError

    def check(self, job: Job, out, inp: dict, ctx: Ctx) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError

    def probes(self) -> list[tuple[str, Callable]]:
        """Untimed operations run once per run; each returns None or an error."""
        return []

    def golden_applies(self) -> bool:
        return self.seed == DEFAULT_SEED


# ---- exact-sweep ---------------------------------------------------------


def exact_mismatch(got, want_obj) -> str | None:
    got_obj = poly_to_obj(got)
    if got_obj != want_obj:
        return f"differs from golden ({len(got_obj['terms'])} vs {len(want_obj['terms'])} terms)"
    return None


class ExactSweep(Workload):
    name = "exact-sweep"
    min_passes = 2

    def inputs(self, pass_no):
        rng = random.Random(self.seed)
        return {
            "diagonal": cw.diagonal_walk(),
            "skewed": cw.skewed_walk(),
            **{f"t{m}": table(rational_moments(m, rng), cw.RATIONAL) for m in (6, 8, 12)},
            "u8": table(rational_moments(8, rng), cw.RATIONAL),
            "u6": table(rational_moments(6, rng), cw.RATIONAL),
            "c12": cw.make_cone(12),
            "c8": cw.make_cone(8),
        }

    def jobs(self, inp):
        def residuals(ctx):
            h = ctx.results["harmonic-m4"].h
            w = inp["skewed"]
            return [cw.one_step_residual(h, w, (a, b)) for a in range(1, 15) for b in range(1, 15)]

        return [
            Job("harmonic-m3", "harmonic", lambda ctx: cw.construct_harmonic(3, cw.push_moments(inp["diagonal"], 3))),
            Job("harmonic-m4", "harmonic", lambda ctx: cw.construct_harmonic(4, cw.push_moments(inp["skewed"], 4))),
            Job("harmonic-m6", "harmonic", lambda ctx: cw.construct_harmonic(6, inp["t6"])),
            Job("harmonic-m8", "harmonic", lambda ctx: cw.construct_harmonic(8, inp["t8"])),
            Job("harmonic-m12", "harmonic", lambda ctx: cw.construct_harmonic(12, inp["t12"])),
            Job("tau-k4-m12", "tau", lambda ctx: cw.tau_moment_poly(4, inp["c12"], inp["u8"])),
            Job("tau-k3-m8", "tau", lambda ctx: cw.tau_moment_poly(3, inp["c8"], inp["u6"])),
            Job("alt-m6", "oracle", lambda ctx: cw.build_harmonic_alt(6, inp["t6"])),
            Job("alt-m8", "oracle", lambda ctx: cw.build_harmonic_alt(8, inp["t8"])),
            Job("residual-m4", "oracle", residuals),
        ]

    def check(self, job, out, inp, ctx):
        golden = self.golden["polys"]
        if job.id.startswith("harmonic-"):
            if not (out.boundary_ok and out.residual.is_zero()):
                return "nonzero drift or boundary values"
            # m=3 and m=4 come from built-in walks, so their golden holds on every seed
            if job.id in ("harmonic-m3", "harmonic-m4") or self.golden_applies():
                return exact_mismatch(out.h, golden[job.id])
            return None
        if job.id.startswith("tau-"):
            if not out.residual.is_zero():
                return "nonzero recursion residual"
            return exact_mismatch(out.G, golden[job.id]) if self.golden_applies() else None
        if job.id.startswith("alt-"):
            ref = ctx.results.get("harmonic-" + job.id.split("-")[1])
            if ref is None:
                return "no boundary-system result to compare with"
            return None if out == ref.h else "alt builder differs from the boundary-system builder"
        if job.id == "residual-m4":
            bad = sum(1 for r in out if r != 0)
            return f"{bad} of {len(out)} lattice points have nonzero one-step drift" if bad else None
        return f"unknown job {job.id}"


# ---- float-sweep ---------------------------------------------------------


def float_mismatch(got, want_terms: dict, bk) -> str | None:
    """Compare inside the backend's precision: outside it mpmath's global
    53 bits would make correct results disagree."""
    with bk.workprec():
        scale = max([mpmath.mpf(1)] + [abs(v) for v in want_terms.values()])
        keys = set(got.terms) | set(want_terms)
        worst = max((abs(got.terms.get(k, 0) - want_terms.get(k, 0)) for k in keys), default=0)
        if worst > bk.tolerance * scale:
            return f"max |diff| {mpmath.nstr(worst, 5)} exceeds {mpmath.nstr(bk.tolerance * scale, 5)}"
    return None


def float_terms(obj: dict, bk) -> dict:
    with bk.workprec():
        return {(i, j): mpmath.mpf(c) for i, j, c in obj["terms"]}


#: ROADMAP open item 3: a walk whose transform needs the float backend
PROBE_ATOMS = (
    (1, -1, Fraction(1, 10)),
    (-1, 1, Fraction(1, 10)),
    (1, 0, Fraction(1, 5)),
    (-1, 0, Fraction(1, 5)),
    (0, 1, Fraction(1, 5)),
    (0, -1, Fraction(1, 5)),
)


def probe_push_moments() -> str | None:
    mu = cw.push_moments(cw.WalkSpec(PROBE_ATOMS), 4)
    bk = mu.backend
    with bk.workprec():
        for key, want in {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 1, (0, 2): 1, (1, 1): 0}.items():
            if not bk.is_zero(mu(*key) - want):
                return f"moment {key} = {mu(*key)}, expected {want}"
    return None


class FloatSweep(Workload):
    name = "float-sweep"
    min_passes = 3

    def inputs(self, pass_no):
        rng = random.Random(self.seed)
        bk = cw.bigfloat(256)
        inp = {f"t{m}": table(rational_moments(m, rng), bk) for m in (5, 7, 10, 14)}
        inp["u8"] = table(rational_moments(8, rng), bk)
        inp["cone"] = cw.cone_from_slope(bk.convert(Fraction(1, 5)), bk)
        inp["bk"] = bk
        return inp

    def jobs(self, inp):
        jobs = [
            Job(f"harmonic-f256-m{m}", "harmonic", lambda ctx, m=m: cw.construct_harmonic(m, inp[f"t{m}"]))
            for m in (5, 7, 10, 14)
        ]
        jobs.append(Job("tau-k4-slope1/5", "tau", lambda ctx: cw.tau_moment_poly(4, inp["cone"], inp["u8"])))
        jobs.append(Job("alt-f256-m10", "oracle", lambda ctx: cw.build_harmonic_alt(10, inp["t10"])))
        return jobs

    def check(self, job, out, inp, ctx):
        bk = inp["bk"]
        golden = self.golden["polys"]
        if job.id.startswith("harmonic-"):
            if not out.boundary_ok:
                return "boundary values not zero"
            return float_mismatch(out.h, float_terms(golden[job.id], bk), bk) if self.golden_applies() else None
        if job.id.startswith("tau-"):
            return float_mismatch(out.G, float_terms(golden[job.id], bk), bk) if self.golden_applies() else None
        if job.id == "alt-f256-m10":
            ref = ctx.results.get("harmonic-f256-m10")
            if ref is None:
                return "no boundary-system result to compare with"
            return float_mismatch(out, dict(ref.h.terms), bk)
        return f"unknown job {job.id}"

    def probes(self):
        return [("probe-item3-push-moments", probe_push_moments)]


# ---- mc-validate ---------------------------------------------------------


def report_obj(rep) -> dict:
    """A SimReport with every float as its exact hex form."""

    def fx(v):
        return float(v).hex()

    return {
        "paths": rep.paths,
        "seed": rep.seed,
        "truncated": rep.truncated,
        "bracket": None if rep.tau_mean_bracket is None else [fx(v) for v in rep.tau_mean_bracket],
        "checks": [[c.name, fx(c.estimate), fx(c.std_error), fx(c.target), fx(c.z), c.passed, c.note] for c in rep.checks],
    }


#: The simple walk runs four full chunks of 65536 paths with a step cap of
#: 1e4.  About 7 paths of a chunk survive to the cap, so every chunk steps to
#: it on all but about 1 seed in 500, and the tail phase has the same length
#: on every seed.  Under the uncapped 100k-path config the run time followed
#: the last exit in each chunk: 2.8-19.8 s over seeds 0-5.
SIMPLE_PATHS = 4 * 65536
SIMPLE_MAX_STEPS = 10_000

#: The diagonal walk keeps the c09 config but with a step cap of 1000.  A
#: chunk's last exit came at 767-76165 steps over seeds 1 and 101-110, so
#: uncapped the tail phase, and the job time, followed the seed; capped,
#: nearly every chunk steps to 1000 (total tail steps spread 3% over seeds
#: 101-110).
DIAGONAL_MAX_STEPS = 1000


class McValidate(Workload):
    name = "mc-validate"
    min_passes = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.first: dict = {}
        self.verdicts: dict = {}

    def inputs(self, pass_no):
        return {
            "sim-diagonal": cw.SimConfig(
                walk=cw.diagonal_walk(), start=(1, 1), paths=1_000_000, seed=self.seed,
                max_steps=DIAGONAL_MAX_STEPS, checks=("tau-mean", "exit-position", "tail"),
            ),
            "sim-simple": cw.SimConfig(
                walk=cw.simple_walk(), start=(1, 1), paths=SIMPLE_PATHS, seed=self.seed,
                max_steps=SIMPLE_MAX_STEPS, checks=("tail",),
            ),
            "sim-skewed": cw.SimConfig(
                walk=cw.skewed_walk(), start=(1, 1), paths=1_000_000, seed=self.seed,
                checks=("tau-mean", "exit-position", "harmonicity"),
            ),
        }

    def jobs(self, inp):
        cls = {"sim-diagonal": "sim_heavy", "sim-simple": "sim_heavy", "sim-skewed": "sim_light"}
        return [Job(k, cls[k], lambda ctx, k=k: cw.sample_exit(inp[k])) for k in ("sim-diagonal", "sim-simple", "sim-skewed")]

    def check(self, job, out, inp, ctx):
        cfg = inp[job.id]
        if out.paths != cfg.paths or out.seed != cfg.seed:
            return "report does not echo its config"
        obj = report_obj(out)
        self.verdicts[job.id] = out.all_passed()
        first = self.first.setdefault(job.id, obj)
        if obj != first:
            return "report differs from the first pass with the same seed"
        if self.golden_applies() and obj != self.golden["reports"][job.id]:
            return "report not bit-identical to golden"
        return None


# ---- cli-cold ------------------------------------------------------------

COMMANDS = (
    ("harmonic-m4", ["harmonic", "--m", "4", "--walk", "skewed"]),
    ("harmonic-m8-f256", ["harmonic", "--m", "8", "--walk", "skewed", "--backend", "float:256"]),
    ("exit-k1-at", ["exit-moments", "--k", "1", "--m", "3", "--walk", "diagonal", "--at", "1,1"]),
    ("exit-k3-m8", ["exit-moments", "--k", "3", "--m", "8", "--walk", "skewed"]),
    ("matrix", ["matrix", "--n", "8", "--m", "12"]),
    ("transform", ["transform", "--walk", "skewed"]),
    ("verify", ["verify", "--walk", "skewed", "--points", "200"]),
    ("simulate", ["simulate", "--walk", "diagonal", "--paths", "20000"]),
)

CHILD_TIMEOUT_S = 120


def run_child(argv: list) -> tuple[int, bytes]:
    """Run one child to completion; on timeout it is killed and reaped."""
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


class CliCold(Workload):
    name = "cli-cold"
    #: 5 cycles of 8 commands give 40 samples, 10 of them beyond p75
    min_passes = 5

    def inputs(self, pass_no):
        order = list(COMMANDS)
        random.Random(self.seed * 7919 + pass_no).shuffle(order)
        return {"order": order}

    def jobs(self, inp):
        return [Job(f"cmd-{label}", "cmd", lambda ctx, argv=argv: self._run(ctx, argv)) for label, argv in inp["order"]]

    def _run(self, ctx, argv):
        tracer = ctx.tracer
        if tracer is None:
            return run_child([sys.executable, "-m", "conewalk.cli", *argv])
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        spans_file = os.path.join(BENCH_DIR, "out", f"child-spans-{os.getpid()}.json")
        rc, out = run_child([sys.executable, os.path.join(BENCH_DIR, "child.py"), spans_file, *argv])
        try:
            with open(spans_file) as fh:
                tracer.add_foreign(json.load(fh), tracer.stack[-1] if tracer.stack else -1)
        finally:
            if os.path.exists(spans_file):
                os.remove(spans_file)
        return rc, out

    def check(self, job, out, inp, ctx):
        want = self.golden["commands"][job.id[len("cmd-"):]]
        rc, stdout = out
        if rc != want["returncode"]:
            return f"exit code {rc}, golden {want['returncode']}"
        if stdout.decode() != want["stdout"]:
            return "stdout differs from golden"
        return None


WORKLOADS = {w.name: w for w in (ExactSweep, FloatSweep, McValidate, CliCold)}
