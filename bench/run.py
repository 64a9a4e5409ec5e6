"""Benchmark for conewalk: exact and float builders, the simulator and cold
CLI calls, with a separate traced run for per-layer metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics.  Lines before it give sample counts, the job-class split,
raw wall times, failures and run metadata.  bench/README.md says what each
workload and metric is for.

The run and its children share one CPU, and every job and set-up time is
reported at a reference host speed (bench/hostspeed.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: one thread in numeric libraries, for this process and every child
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: setup_s is the median over this many fresh processes
SETUP_REPEATS = 5

WORKLOAD_NAMES = ("exact-sweep", "float-sweep", "mc-validate", "cli-cold")

#: layer spans reported per pass: (span name, fields); calls are counts,
#: self is duration minus children, incl is the outermost spans' duration
SPAN_METRICS = (
    ("drift", ("calls", "self")),
    ("drift.residual", ("calls", "incl")),
    ("linsys.build_matrix", ("calls", "self")),
    ("linsys.solve", ("calls", "self")),
    ("exits.poisson_solve", ("calls", "self")),
    ("exits.tau", ("calls", "self")),
    ("harmonic.construct", ("calls", "self")),
    ("alt.build", ("calls", "self")),
    ("alt.eliminate", ("calls",)),
    ("walks.push_moments", ("calls", "incl")),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---- measurement ---------------------------------------------------------


def clear_memo_caches() -> None:
    """Empty every module-level memo of conewalk (dicts named *_CACHE and
    functools caches), so no pass is served by an earlier pass's entries."""
    for name, mod in list(sys.modules.items()):
        if name != "conewalk" and not name.startswith("conewalk."):
            continue
        for attr, val in list(vars(mod).items()):
            if attr.endswith("_CACHE") and isinstance(val, dict):
                val.clear()
            elif hasattr(val, "cache_info") and not isinstance(val, type):
                val.cache_clear()


def run_pass(workload, pass_no: int, tracer=None) -> dict:
    """One pass over fresh inputs; outputs are checked after the clock stops."""
    from workloads import Ctx

    clear_memo_caches()
    inp = workload.inputs(pass_no)
    jobs = workload.jobs(inp)
    ctx = Ctx(tracer)
    gc.collect()
    if tracer is not None:
        tracer.pass_id = pass_no
        tracer.recording = True
        pass_span = tracer.open("pass")
    records = []
    t_pass = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            span = tracer.open(f"job:{job.id}")
        t = time.perf_counter()
        try:
            out, err = job.fn(ctx), None
        except Exception as e:  # a failed job is counted and the run goes on
            out, err = None, f"raised {type(e).__name__}: {e}"
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        if err is None:
            ctx.results[job.id] = out
        # dt is set at the reference speed by adjust() once the run is over
        records.append({"job": job, "span": (t, t_end), "dt": t_end - t, "out": out, "err": err})
    wall_s = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.close(pass_span)
        tracer.recording = False
    for rec in records:
        if rec["err"] is None:
            rec["err"] = workload.check(rec["job"], rec["out"], inp, ctx)
    return {"pass_s": wall_s, "wall_s": wall_s, "jobs": records}


def adjust(passes: list[dict], sampler: hostspeed.SpeedSampler) -> None:
    """Job times at the reference host speed; a pass is the sum of its jobs."""
    for p in passes:
        for r in p["jobs"]:
            r["dt"] = sampler.adjusted(*r["span"])
        p["pass_s"] = sum(r["dt"] for r in p["jobs"])


def measure(workload, budget_s: float, min_passes: int, tracer=None, first_pass: int = 0) -> list[dict]:
    """Whole passes until the budget is spent, and at least ``min_passes``.
    A pass is started only if it is expected to end less than half a pass
    after the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, first_pass + len(passes), tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical / 2 >= budget_s:
            return passes


def setup_times(args) -> list[tuple[float, float]]:
    """Start and end of fresh processes that import conewalk, build the
    pass inputs and exit."""
    from workloads import child_env

    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        out.append((t, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return out


def class_split(passes: list[dict]) -> dict:
    """Median over passes of the time each job class took in a pass."""
    classes = sorted({r["job"].cls for p in passes for r in p["jobs"]})
    return {
        c: statistics.median(sum(r["dt"] for r in p["jobs"] if r["job"].cls == c) for p in passes)
        for c in classes
    }


def job_times(passes: list[dict], job_id: str) -> list[float]:
    return [r["dt"] for p in passes for r in p["jobs"] if r["job"].id == job_id]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_meta(seed: int) -> dict:
    import mpmath
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "conewalk")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "seed": seed,
    }


# ---- the two kinds of run ------------------------------------------------


def cmd_percentiles(passes: list[dict]) -> dict:
    """Median and p75 latency of one cold CLI command (cli-cold only)."""
    cmds = [r["dt"] for p in passes for r in p["jobs"] if r["job"].cls == "cmd"]
    if len(cmds) < 2:
        return {"cmd_p50_s": 0.0, "cmd_p75_s": 0.0}
    return {"cmd_p50_s": statistics.median(cmds), "cmd_p75_s": statistics.quantiles(cmds, n=4)[2]}


def untraced_metrics(args, workload, lines: list, sampler) -> tuple[dict, list[dict], int, list[str]]:
    """End-to-end metrics, the passes run, and no extra operations."""
    setup_spans = setup_times(args)
    passes = measure(workload, args.seconds, workload.min_passes)
    adjust(passes, sampler)
    setups = [sampler.adjusted(a, b) for a, b in setup_spans]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.name), "MB"),
    }
    n_ops = sum(len(p["jobs"]) for p in passes)
    lines.append(f"samples: setup_s {len(setups)} processes, pass_s {len(passes)} passes of {n_ops // len(passes)} jobs")
    lines.append(f"wall (not at reference speed): setup_s {statistics.median(b - a for a, b in setup_spans):.6g} s, "
                 f"pass_s {statistics.median(p['wall_s'] for p in passes):.6g} s")
    for cls, value in class_split(passes).items():
        lines.append(f"class {cls}_s {value:.6g} s (median over {len(passes)} passes)")
    if workload.name == "cli-cold":
        for name, value in cmd_percentiles(passes).items():
            lines.append(f"{name} {value:.6g} s ({n_ops} cold commands)")
    return metrics, passes, 0, []


def traced_metrics(args, workload, lines: list, sampler) -> tuple[dict, list[dict], int, list[str]]:
    """Per-layer metrics, the passes run, and the micro-benchmark groups run
    as operations with their failures.  Half the budget runs untraced, half
    traced; span metrics are per-pass medians over the traced passes, in
    wall time."""
    import micro
    import tracing
    from workloads import COMMANDS

    untraced = measure(workload, args.seconds / 2, workload.min_passes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(workload, args.seconds / 2, 1, tracer, first_pass=len(untraced))
    finally:
        tracer.uninstall()
    adjust(untraced + traced, sampler)
    traced_ids = [len(untraced) + i for i in range(len(traced))]
    summary = tracing.summarize(tracer.spans)

    def per_pass(fn) -> float:
        return statistics.median(fn(summary.get(p, {})) for p in traced_ids)

    metrics: dict = {}
    split = class_split(untraced)
    for cls in ("harmonic", "tau", "oracle", "sim_heavy", "sim_light"):
        metrics[f"{cls}_s"] = (split.get(cls, 0.0), "s")
    metrics.update({k: (v, "s") for k, v in cmd_percentiles(untraced).items()})

    for name, fields in SPAN_METRICS:
        for field in fields:
            suffix, unit = {"calls": ("calls", "count"), "self": ("self_s", "s"), "incl": ("s", "s")}[field]
            metrics[f"{name}.{suffix}"] = (per_pass(lambda s: s.get(name, {}).get(field, 0)), unit)
    metrics["drift.terms_in"] = (per_pass(lambda s: sum(s.get("drift", {}).get("meta", []))), "count")

    def distinct_frac(s) -> float:
        keys = s.get("alt.eliminate", {}).get("meta", [])
        return len(set(keys)) / len(keys) if keys else 0.0

    metrics["alt.eliminate.distinct_frac"] = (per_pass(distinct_frac), "ratio")

    targets = tracing.sim_target_time(tracer.spans)
    metrics["sim.targets.s"] = (statistics.median(targets.get(p, 0.0) for p in traced_ids), "s")
    for walk in ("diagonal", "simple", "skewed"):
        metrics[f"sim.{walk}.s"] = (median_or_zero(job_times(untraced, f"sim-{walk}")), "s")
    for walk in ("diagonal", "skewed"):
        # path-steps = the tau-mean estimate times the number of paths
        rates = [
            next(c.estimate for c in r["out"].checks if c.name == "tau-mean") * r["out"].paths / r["dt"]
            for p in untraced for r in p["jobs"] if r["job"].id == f"sim-{walk}" and r["err"] is None
        ]
        metrics[f"sim.{walk}.steps_per_s"] = (median_or_zero(rates), "1/s")
    for label, _argv in COMMANDS:
        metrics[f"cli.{label}.s"] = (median_or_zero(job_times(untraced, f"cmd-{label}")), "s")

    # each micro-benchmark group is one operation; one that raises reports zeros
    rng = random.Random(args.seed)
    micro_errors: list[str] = []  # one line per failed group
    values: dict = {}
    for group in micro.GROUPS:
        group_errors: list[str] = []
        try:
            values.update(group(rng, group_errors))
        except Exception as e:  # recorded as a failed operation
            group_errors.append(f"raised {type(e).__name__}: {e}")
        if group_errors:
            micro_errors.append(f"micro {group.__name__}: " + "; ".join(group_errors))
    metrics.update({name: (values.get(name, 0.0), unit) for name, unit in micro.UNITS.items()})

    untraced_pass = statistics.median(p["pass_s"] for p in untraced)
    traced_pass = statistics.median(p["pass_s"] for p in traced)
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    metrics["trace.absent"] = (len(tracer.absent), "count")
    lines.append(f"samples: {len(untraced)} untraced and {len(traced)} traced passes, "
                 f"{len(tracer.spans)} spans; pass_s untraced {untraced_pass:.6g} s, traced {traced_pass:.6g} s")
    if tracer.absent:
        lines.append("absent spans (reported as 0): " + ", ".join(tracer.absent))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "pass", "meta"], "spans": tracer.spans}, fh)
    lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, untraced + traced, len(micro.GROUPS), micro_errors


def run_probes(workload) -> dict:
    out = {}
    for name, fn in workload.probes():
        try:
            out[name] = fn()
        except Exception as e:  # the probe records a failure, it does not stop the run
            out[name] = f"raised {type(e).__name__}: {e}"
    return out


def run_one(args) -> int:
    import micro
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.inputs(0)
        return 0
    nproc = len(os.sched_getaffinity(0))
    cpu = hostspeed.pin_to_one_cpu()
    with hostspeed.SpeedSampler() as sampler:
        calib = [micro.calibrate()]
        meta = run_meta(args.seed)
        lines = [f"workload {workload.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}"]
        measure_fn = traced_metrics if args.trace else untraced_metrics
        metrics, passes, extra_ops, extra_errors = measure_fn(args, workload, lines, sampler)
        probe_errors = run_probes(workload)
        calib.append(micro.calibrate())
    meta["host.calib_s"] = calib
    meta["nproc"] = nproc
    meta["pinned_cpu"] = cpu
    meta["host.slowdown"] = {
        "samples": len(sampler.kernel_s),
        "mean": statistics.fmean(sampler.kernel_s) / hostspeed.KERNEL_REF_S,
        "max": max(sampler.kernel_s) / hostspeed.KERNEL_REF_S,
    }
    if args.trace:
        metrics["host.calib_s"] = (statistics.mean(calib), "s")

    # An operation is one job of the workload (run once in every pass; it
    # fails if any of its runs raised or gave a wrong output), each probe,
    # and in a traced run each micro-benchmark group.  Counting operations,
    # not job runs, keeps ``attempted`` and ``failed`` independent of how
    # many passes the host speed allowed.
    errors = [f"pass {i} {r['job'].id}: {r['err']}" for i, p in enumerate(passes) for r in p["jobs"] if r["err"]]
    errors += extra_errors
    job_ids = {r["job"].id for p in passes for r in p["jobs"]}
    failed_ids = {r["job"].id for p in passes for r in p["jobs"] if r["err"]}
    probe_failures = [f"{name}: {err}" for name, err in probe_errors.items() if err]
    attempted = len(job_ids) + len(probe_errors) + extra_ops
    failed = len(failed_ids) + len(extra_errors) + len(probe_failures)

    verdicts = getattr(workload, "verdicts", None)
    if verdicts:
        lines.append("statistical verdicts (not counted as failures): " + json.dumps(verdicts, sort_keys=True))
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    lines.append(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    lines.extend("failure: " + e for e in errors)
    lines.extend(f"known-defect probe {name}: " + (err or "passed") for name, err in probe_errors.items())
    lines.extend(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print("\n".join(lines))
    # a probe of a known defect counts as failed but does not make the outputs wrong
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as it is run one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conewalk", "__init__.py")):
        print(f"bench: no conewalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
