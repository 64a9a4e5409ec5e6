"""Per-layer micro-benchmarks at stated sizes, for the traced run.

Each returns a median over repeats.  Sizes:
- scalars: products of two Fractions with 64-bit numerators and
  denominators, of two Q(sqrt 3) elements built from such Fractions, and of
  two 256-bit mpf values; entering and leaving ``FloatBackend.workprec()``;
- poly: a dense degree-12 polynomial (91 terms) with Q(sqrt 3)
  coefficients times a dense degree-6 one (28 terms), its x1-derivative,
  and its value at a rational point;
- linsys: one degree-23 boundary solve, dense and even/odd, on the m=12
  cone in Q(sqrt 3) and in float:256, with the same nonresonant right-hand
  side;
- cli: a bare interpreter, ``import conewalk``, and the numpy and mpmath
  shares of that import from ``-X importtime``.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import conewalk as cw
import mpmath

from workloads import ROOT, child_env

REPEATS = 5

#: interpreter starts per CLI measurement
CLI_REPEATS = 3

#: every metric this module reports, with its unit
UNITS = {
    "scalars.fraction_mul_ns": "ns",
    "scalars.quad_mul_ns": "ns",
    "scalars.mpf_mul_ns": "ns",
    "scalars.workprec_ns": "ns",
    "poly.mul_us": "us",
    "poly.diff_us": "us",
    "poly.evaluate_us": "us",
    "linsys.dense_ms": "ms",
    "linsys.evenodd_ms": "ms",
    "linsys.dense_f256_ms": "ms",
    "linsys.evenodd_f256_ms": "ms",
    "cli.python_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_us": "us",
    "cli.import_mpmath_us": "us",
}


def _per_op_ns(fn, n: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn(n)
        samples.append((time.perf_counter() - t) / n * 1e9)
    return statistics.median(samples)


def _frac(rng):
    return Fraction(rng.getrandbits(64) | 1, rng.getrandbits(64) | 1)


def scalars(rng: random.Random, errors: list) -> dict:
    a, b = _frac(rng), _frac(rng)
    qa, qb = cw.QuadElement(_frac(rng), _frac(rng), 3), cw.QuadElement(_frac(rng), _frac(rng), 3)
    bk = cw.bigfloat(256)
    with bk.workprec():
        fa, fb = bk.convert(_frac(rng)), bk.convert(_frac(rng))

    def loop(x, y):
        def run(n):
            for _ in range(n):
                x * y

        return run

    def mpf_loop(n):
        with bk.workprec():
            for _ in range(n):
                fa * fb

    def workprec_loop(n):
        for _ in range(n):
            with bk.workprec():
                pass

    return {
        "scalars.fraction_mul_ns": _per_op_ns(loop(a, b), 20000),
        "scalars.quad_mul_ns": _per_op_ns(loop(qa, qb), 2000),
        "scalars.mpf_mul_ns": _per_op_ns(mpf_loop, 20000),
        "scalars.workprec_ns": _per_op_ns(workprec_loop, 20000),
    }


def _dense_poly(deg: int, rng: random.Random):
    return cw.Poly(
        {
            (i, d - i): cw.QuadElement(Fraction(rng.randint(-99, 99), rng.randint(1, 99)), Fraction(rng.randint(-99, 99), rng.randint(1, 99)), 3)
            for d in range(deg + 1)
            for i in range(d + 1)
        }
    )


def poly(rng: random.Random, errors: list) -> dict:
    p, q = _dense_poly(12, rng), _dense_poly(6, rng)
    x1, x2 = Fraction(rng.randint(1, 99), 7), Fraction(rng.randint(1, 99), 11)

    def mul(n):
        for _ in range(n):
            p * q

    def diff(n):
        for _ in range(n):
            p.diff(1, 1)

    def evaluate(n):
        for _ in range(n):
            p.evaluate(x1, x2)

    return {
        "poly.mul_us": _per_op_ns(mul, 1) / 1e3,
        "poly.diff_us": _per_op_ns(diff, 100) / 1e3,
        "poly.evaluate_us": _per_op_ns(evaluate, 10) / 1e3,
    }


LINSYS_DEGREE = 23


def linsys(rng: random.Random, errors: list) -> dict:
    """Solve timings; disagreements between the four answers go to errors."""
    n = LINSYS_DEGREE
    rhs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n - 1)] + [Fraction(0)] * 2
    exact = cw.build_matrix(n, cw.make_cone(12))
    bk = cw.bigfloat(256)
    flt = cw.build_matrix(n, cw.make_cone(12, bk))
    rhs_f = [bk.convert(v) for v in rhs]
    out, answers = {}, {}
    for label, mat, b, suffix in (("exact", exact, rhs, ""), ("f256", flt, rhs_f, "_f256")):
        for kind, solve in (("dense", cw.solve_system), ("evenodd", cw.solve_system_recursive)):
            samples = []
            for _ in range(REPEATS):
                t = time.perf_counter()
                answers[(label, kind)] = solve(mat, b)
                samples.append((time.perf_counter() - t) * 1e3)
            out[f"linsys.{kind}{suffix}_ms"] = statistics.median(samples)
    if answers[("exact", "dense")] != answers[("exact", "evenodd")]:
        errors.append("linsys: exact dense and even/odd answers differ")
    with bk.workprec():
        ref = [bk.convert(v) for v in answers[("exact", "dense")]]
        scale = max([mpmath.mpf(1)] + [abs(v) for v in ref])
        for kind in ("dense", "evenodd"):
            worst = max(abs(a - b) for a, b in zip(answers[("f256", kind)], ref))
            if worst > bk.tolerance * scale:
                errors.append(f"linsys: float:256 {kind} answer off by {mpmath.nstr(worst, 5)}")
    return out


IMPORT_SNIPPET = "import time, sys; t = time.perf_counter(); import conewalk; sys.stdout.write(repr(time.perf_counter() - t))"


def _importtime_us(stderr: str, package: str) -> float:
    """Cumulative microseconds of a top-level package in -X importtime output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return float(parts[1])
    return 0.0


def cli(rng: random.Random, errors: list) -> dict:
    def run(argv):
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-300:]}")
        return proc

    python, imports, numpy_us, mpmath_us = [], [], [], []
    for _ in range(CLI_REPEATS):
        t = time.perf_counter()
        run([sys.executable, "-c", "pass"])
        python.append(time.perf_counter() - t)
        imports.append(float(run([sys.executable, "-c", IMPORT_SNIPPET]).stdout))
        err = run([sys.executable, "-X", "importtime", "-c", "import conewalk"]).stderr
        numpy_us.append(_importtime_us(err, "numpy"))
        mpmath_us.append(_importtime_us(err, "mpmath"))
    return {
        "cli.python_s": statistics.median(python),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_us": statistics.median(numpy_us),
        "cli.import_mpmath_us": statistics.median(mpmath_us),
    }


GROUPS = (scalars, poly, linsys, cli)


def calibrate() -> float:
    """A fixed pure-Python loop; its time shows how busy the host is."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t
