"""Spans around the public functions of conewalk, recorded from outside the
package for the traced run.

Modules import each other's functions by name (``harmonic.drift_expansion``,
``exits.drift_expansion``, ``sim.tau_moment_poly``, ...), so a function is
replaced by its wrapper at every place it is bound, including the package
namespace.  A function that no longer exists is reported as absent.

A span is ``[name, start, end, parent, pass_id, meta]``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module under conewalk, function, span name)
TARGETS = (
    ("drift", "drift_expansion", "drift"),
    ("drift", "one_step_residual", "drift.residual"),
    ("linsys", "build_matrix", "linsys.build_matrix"),
    ("linsys", "solve_system", "linsys.solve"),
    ("exits", "poisson_solve", "exits.poisson_solve"),
    ("exits", "tau_moment_poly", "exits.tau"),
    ("exits", "exit_position_moments", "exits.exit_position"),
    ("harmonic", "construct_harmonic", "harmonic.construct"),
    ("alt", "build_harmonic_alt", "alt.build"),
    ("alt", "eliminate_monomial", "alt.eliminate"),
    ("walks", "push_moments", "walks.push_moments"),
    ("sim", "sample_exit", "sim.sample_exit"),
)

# exact-target calls that sample_exit makes before or after stepping
SIM_TARGETS = ("exits.tau", "harmonic.construct", "walks.push_moments", "exits.exit_position")


def _drift_meta(args, kwargs):
    f = args[0] if args else kwargs.get("f")
    return len(getattr(f, "terms", ()))


def _eliminate_meta(args, kwargs):
    j, k, m = (list(args[:3]) + [None] * 3)[:3]
    cone = args[3] if len(args) > 3 else kwargs.get("cone")
    field = getattr(getattr(cone, "backend", None), "name", "default")
    return f"{j},{k},{m},{field}"


META = {"drift": _drift_meta, "alt.eliminate": _eliminate_meta}


class Tracer:
    """Records spans while ``recording`` is true; wrappers pass calls
    straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.recording = False
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    def open(self, name, meta=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, meta])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        meta_fn = META.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name, meta_fn(args, kwargs) if meta_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "conewalk" or n.startswith("conewalk.")]
        for modname, attr, span_name in TARGETS:
            mod = sys.modules.get(f"conewalk.{modname}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(fn, span_name)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def add_foreign(self, spans: list, parent: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _pass, meta in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.pass_id, meta])


def summarize(spans: list) -> dict:
    """Per pass and span name: calls, inclusive time of the outermost spans
    of that name, self time (duration minus the children's durations) and
    the list of metas."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "meta": []}))
    for i, (name, start, end, parent, pass_id, meta) in enumerate(spans):
        rec = out[pass_id][name]
        rec["calls"] += 1
        rec["self"] += (end - start) - child_time[i]
        rec["meta"].append(meta)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["incl"] += end - start
    return out


def sim_target_time(spans: list) -> dict:
    """Per pass: time in exact-target calls made from sample_exit, counting
    only the outermost target span under each sample_exit span."""
    out: dict = defaultdict(float)
    for name, start, end, parent, pass_id, _meta in spans:
        if name not in SIM_TARGETS:
            continue
        p, under_sim = parent, False
        while p >= 0:
            pname = spans[p][0]
            if pname in SIM_TARGETS:
                break
            if pname == "sim.sample_exit":
                under_sim = True
                break
            p = spans[p][3]
        if under_sim:
            out[pass_id] += end - start
    return out
