"""Command-line interface.

Subcommands: harmonic, exit-moments, matrix, transform, verify, simulate,
alt-eliminate, self-test.  Output is canonical JSON (or a short pretty
form) so repeated runs are byte-identical.  Exit codes: 0 success,
2 validation/input failure, 3 check or assertion failure.  The CONE_LOG
environment variable (error, warn, info, debug) sets the log level.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alt import eliminate_monomial
from .cones import ConeSpec, cone_for_table, cone_from_slope, make_cone
from .drift import one_step_residual
from .errors import ConewalkError, ValidationError, integer
from .exits import exit_position_moments, tau_moment_poly
from .harmonic import construct_harmonic
from .jsonio import (
    canonical_dumps,
    matrix_to_obj,
    moments_from_obj,
    poly_to_obj,
    walk_from_obj,
    walk_to_obj,
)
from .linsys import build_matrix
from .scalars import RATIONAL, backend_from_name, bigfloat, format_scalar
from .walks import MomentTable, WalkSpec, builtin_walks, check_no_overshoot, push_moments

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK = 3


def _log():
    """The "conewalk" logger, with logging set up from CONE_LOG (default
    warn).  logging is imported here, at startup when CONE_LOG is set and
    else on the first warning or error, so a command that logs nothing
    never loads it."""
    import logging

    level = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(os.environ.get("CONE_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    return logging.getLogger("conewalk")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}: invalid JSON: {e.msg}")


def _load_walk(name_or_path: str) -> WalkSpec:
    table = builtin_walks()
    if name_or_path in table:
        return table[name_or_path]
    return walk_from_obj(_load_json(name_or_path))


def _walk(args) -> WalkSpec | None:
    """The walk of --walk, or None.  Logs a warning when --m names another
    opening than its wedge, and when it can jump over the boundary, since
    the exact results assume that it exits onto the boundary."""
    if not args.walk:
        return None
    w = _load_walk(args.walk)
    m = getattr(args, "m", None)
    if m is not None and w.cone.m != m:
        _log().warning("--m %d: the wedge of walk %s has opening pi/%g, not pi/%d",
                       m, args.walk, w.cone.p_alpha, m)
    if not check_no_overshoot(w):
        _log().warning("walk %s can jump over the boundary (a step component below -1); "
                       "the exact results assume it exits onto the boundary", args.walk)
    return w


def _resolve_moments(args, w: WalkSpec | None, order: int) -> MomentTable:
    """The table of --moments in the --backend field (Q without one), or the
    walk's table, converted into the --backend field when one is given."""
    backend = backend_from_name(args.backend) if args.backend else None
    if args.moments:
        return moments_from_obj(_load_json(args.moments), backend or RATIONAL)
    if w is None:
        raise ValidationError("one of --moments or --walk is required")
    mu = push_moments(w, order)
    if backend is None:
        return mu
    try:  # Backend.convert refuses an entry the field cannot hold
        return MomentTable(mu.order, {k: backend.convert(v) for k, v in mu.mu.items()}, backend)
    except ValueError as e:
        why = f"walk {args.walk}: its {mu.backend.name} moments are not in {backend.name}: {e}"
        raise ValidationError(why) from None


def _resolve_cone(args, w: WalkSpec | None = None, mu: MomentTable | None = None) -> ConeSpec:
    """The cone of --m or --b; without either, the cone of the walk w, in
    the --backend field when one is given.  Given the moment table mu and
    no --backend, a pi/m cone is the one construct_harmonic runs mu over
    (cone_for_table)."""
    backend = backend_from_name(args.backend) if args.backend else None
    m, b = args.m, args.b
    if m is None and b is None and w is not None:
        if backend is None or w.cone.m is None:
            return w.cone
        m = w.cone.m
    if m is not None:
        if backend is None and mu is not None:
            return cone_for_table(m, mu.backend)
        return make_cone(m, backend)
    if b is not None:
        bk = backend or RATIONAL
        return cone_from_slope(bk.parse(b), bk)
    raise ValidationError("one of --m or --b is required")


def _emit(args, obj) -> None:
    if args.format == "pretty":
        text = _pretty(obj)
    else:
        text = canonical_dumps(obj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pretty(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        return "".join(f"{pad}{k}:\n{_pretty(v, indent + 1)}" if isinstance(v, (dict, list))
                       else f"{pad}{k}: {v}\n" for k, v in obj.items())
    if isinstance(obj, list):
        return "".join(
            _pretty(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}\n" for v in obj
        )
    return f"{pad}{obj}\n"


def cmd_harmonic(args) -> int:
    mu = _resolve_moments(args, _walk(args), max(args.m, 2))
    if args.backend:  # refuse a field that cannot hold tan(pi/m), as exit-moments does
        make_cone(args.m, mu.backend)
    res = construct_harmonic(args.m, mu)
    obj = {
        "m": res.m,
        "h": poly_to_obj(res.h),
        "correction": poly_to_obj(res.correction),
        "residual_max": res.residual.max_abs_float(),
        "boundary_ok": res.boundary_ok,
    }
    _emit(args, obj)
    return EXIT_OK


def cmd_exit_moments(args) -> int:
    w = _walk(args)
    mu = _resolve_moments(args, w, max(2 * args.k, 2))
    cone = _resolve_cone(args, w, mu)
    res = tau_moment_poly(args.k, cone, mu)
    obj = {"k": args.k, "G": poly_to_obj(res.G), "residual_max": res.residual.max_abs_float()}
    if args.at:
        x1, x2 = (cone.backend.parse(v) for v in args.at.split(","))
        value = res.G.evaluate(x1, x2)
        ep = exit_position_moments(cone, (x1, x2))
        with cone.backend.workprec():  # format_scalar prints the global precision's digits
            obj["value_at"] = format_scalar(value)
            obj["exit_position"] = {k: format_scalar(v) for k, v in vars(ep).items()}
    _emit(args, obj)
    return EXIT_OK


def cmd_matrix(args) -> int:
    cone = _resolve_cone(args)
    mat = build_matrix(args.n, cone)
    _emit(args, {"n": args.n, "rows": matrix_to_obj(mat.rows)})
    return EXIT_OK


def cmd_transform(args) -> int:
    w = _load_walk(args.walk)
    tr = w.transform
    obj = {
        "walk": walk_to_obj(w),
        "t11": format_scalar(tr.t11),
        "t12": format_scalar(tr.t12),
        "t22": format_scalar(tr.t22),
        "rho": tr.rho_float(),
        "alpha_geometric": tr.alpha_geometric,
        "alpha_formula": tr.alpha_formula,
        "m": w.cone.m,
        "p_alpha": w.cone.p_alpha,
    }
    _emit(args, obj)
    return EXIT_OK


def cmd_verify(args) -> int:
    import random

    integer(args.points, "--points", 1)
    w = _walk(args)
    m = args.m if args.m is not None else w.cone.m
    if m is None:
        raise ValidationError("walk opening is not pi/m; pass --m explicitly")
    mu = push_moments(w, max(m, 2))
    res = construct_harmonic(m, mu)
    rng = random.Random(args.seed)
    residuals = [one_step_residual(res.h, w, (rng.randint(1, 50), rng.randint(1, 50)))
                 for _ in range(args.points)]
    worst = max((abs(float(r)) for r in residuals), default=0.0)
    failures = sum(not res.cone.backend.is_zero(r) for r in residuals)
    obj = {
        "m": m,
        "points": args.points,
        "failures": failures,
        "worst_residual": worst,
        "boundary_ok": res.boundary_ok,
    }
    _emit(args, obj)
    return EXIT_OK if failures == 0 and res.boundary_ok else EXIT_CHECK


def cmd_simulate(args) -> int:
    from .sim import SimConfig, sample_exit

    w = _walk(args)
    start = tuple(int(v) for v in args.start.split(","))
    checks = {"checks": tuple(args.check.split(","))} if args.check else {}
    cfg = SimConfig(
        walk=w,
        start=start,
        paths=args.paths,
        seed=args.seed,
        max_steps=args.max_steps,
        **checks,
    )
    rep = sample_exit(cfg)
    obj = {
        "paths": rep.paths,
        "seed": rep.seed,
        "truncated": rep.truncated,
        "checks": [vars(c) for c in rep.checks],
    }
    _emit(args, obj)
    return EXIT_OK if rep.all_passed() else EXIT_CHECK


def cmd_alt_eliminate(args) -> int:
    f, g, F = eliminate_monomial(args.j, args.k, args.m)
    _emit(
        args,
        {
            "j": args.j,
            "k": args.k,
            "m": args.m,
            "f": poly_to_obj(f),
            "g": poly_to_obj(g),
            "F": poly_to_obj(F),
        },
    )
    return EXIT_OK


def cmd_self_test(args) -> int:
    from .diagnostics import self_test

    try:
        bigfloat(args.float_bits)
    except ValueError as e:  # refused here, not reported as failing properties
        raise ValidationError(f"--float-bits {args.float_bits}: {e}") from None
    results = self_test(seed=args.seed, float_bits=args.float_bits)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_CHECK


class _SimulateHelp(argparse.HelpFormatter):
    """Lists the simulator's checks and their default in the --check help,
    importing the simulator only when the help is printed."""

    def _get_help_string(self, action):
        if action.dest != "check":
            return action.help
        from .sim import KNOWN_CHECKS, SimConfig

        return f"{action.help}: {', '.join(KNOWN_CHECKS)} (default {','.join(SimConfig.checks)})"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conewalk",
        description="Exact harmonic polynomials and exit-time moments for "
        "lattice walks killed at leaving a wedge.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, backend=False):
        if backend:  # only the commands that read it take it
            sp.add_argument("--backend", help="rational, quad:d, or float:bits")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        sp.add_argument("--format", choices=("json", "pretty"), default="json")

    sp = sub.add_parser("harmonic", help="build the harmonic polynomial for opening pi/m")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--moments", help="moment-table JSON file")
    sp.add_argument("--walk", help="built-in walk name or walk JSON file")
    common(sp, backend=True)
    sp.set_defaults(fn=cmd_harmonic)

    sp = sub.add_parser("exit-moments", help="exit-time moment polynomial G_k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, help="opening pi/m; without --m or --b, the wedge of --walk")
    sp.add_argument("--b", help="boundary slope when the opening is not pi/m")
    sp.add_argument("--moments")
    sp.add_argument("--walk")
    sp.add_argument("--at", help="evaluate at x1,x2")
    common(sp, backend=True)
    sp.set_defaults(fn=cmd_exit_moments)

    sp = sub.add_parser("matrix", help="dump the degree-n boundary system matrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--b")
    common(sp, backend=True)
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("transform", help="normalizing transform and wedge of a walk")
    sp.add_argument("--walk", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("verify", help="one-step harmonicity spot check at lattice points")
    sp.add_argument("--walk", required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="Monte Carlo checks against exact targets",
                        formatter_class=_SimulateHelp)
    sp.add_argument("--walk", required=True)
    sp.add_argument("--start", default="1,1")
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--max-steps", type=int, default=10_000_000)
    sp.add_argument("--check", help="comma list of checks")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("alt-eliminate", help="monomial-elimination triple (f, g, F)")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_alt_eliminate)

    sp = sub.add_parser("self-test", help="run the full property suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--float-bits", type=int, default=256)
    sp.set_defaults(fn=cmd_self_test)

    return p


def main(argv=None) -> int:
    if "CONE_LOG" in os.environ:  # the solver's and the simulator's debug lines need it loaded
        _log()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConewalkError as e:
        _log().error("%s: %s", e.code, e)
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as e:
        print(f"error [invalid-value]: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
