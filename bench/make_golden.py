"""Write the golden outputs under bench/golden from the current tree.

    python3 bench/make_golden.py

Run it only when an output is meant to change: the benchmark counts every
difference from these files as a wrong output.  Exact polynomials are
canonical JSON, float ones 80-digit strings, simulator reports carry their
floats in hex, and CLI output is kept byte for byte.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import mpmath  # noqa: E402
from conewalk.jsonio import poly_to_obj  # noqa: E402

import workloads as wl  # noqa: E402


def one_pass(workload) -> dict:
    inp = workload.inputs(0)
    ctx = wl.Ctx()
    for job in workload.jobs(inp):
        ctx.results[job.id] = job.fn(ctx)
    return ctx.results


def float_obj(p) -> dict:
    with mpmath.workprec(256):
        return {"terms": [[i, j, mpmath.nstr(c, 80)] for (i, j), c in sorted(p.terms.items())]}


def main() -> int:
    seed = wl.DEFAULT_SEED
    out = {}
    res = one_pass(wl.ExactSweep(seed))
    out["exact-sweep"] = {"seed": seed, "polys": {
        k: poly_to_obj(v.h if k.startswith("harmonic-") else v.G)
        for k, v in res.items() if k.startswith(("harmonic-", "tau-"))
    }}
    res = one_pass(wl.FloatSweep(seed))
    out["float-sweep"] = {"seed": seed, "polys": {
        k: float_obj(v.h if k.startswith("harmonic-") else v.G)
        for k, v in res.items() if k.startswith(("harmonic-", "tau-"))
    }}
    res = one_pass(wl.McValidate(seed))
    out["mc-validate"] = {"seed": seed, "reports": {k: wl.report_obj(v) for k, v in res.items()}}
    commands = {}
    for label, argv in wl.COMMANDS:
        rc, stdout = wl.run_child([sys.executable, "-m", "conewalk.cli", *argv])
        commands[label] = {"argv": argv, "returncode": rc, "stdout": stdout.decode()}
    out["cli-cold"] = {"commands": commands}
    os.makedirs(wl.GOLDEN_DIR, exist_ok=True)
    for name, obj in out.items():
        with open(os.path.join(wl.GOLDEN_DIR, f"{name}.json"), "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
