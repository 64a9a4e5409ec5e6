"""Host-speed normalisation of wall times.

On a shared host the same work can take 1.5-2x longer for periods from under
a second to several minutes, and ``process_time`` slows down with the wall
clock, so neither tells a slow program from a slow host.  ``SpeedSampler``
interrupts the process every ``INTERVAL_S`` (``SIGALRM``) and times a fixed
pure-Python kernel that uses nothing of conewalk.  An interval of work is
then reported at the reference speed:

    (wall - sampler time inside it) * KERNEL_REF_S / mean kernel time near it

The mean, not the median, of the kernel times is used: it integrates the
slowdown over the interval, as the work itself feels it.  Child processes
are timed the same way when they run on the sampler's CPU (``pin_to_one_cpu``):
the sampler then preempts the child, its time is subtracted, and the kernel
feels what the child feels.  (Stopping the timer while a child runs and
sampling just before and after it instead was tried: on ``cli-cold`` the
quartile spread of ``pass_s`` over ten seeds rose from 0.036 to 0.123, and
the reported times fell as the host slowed.)
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

#: time between two kernel samples
INTERVAL_S = 0.05

#: kernel samples this far outside an interval also count for it
WINDOW_S = 0.1

#: fewest kernel samples behind one speed estimate
MIN_SAMPLES = 3

#: the kernel's time in the fast state of a 2.0 GHz Xeon vCPU under
#: CPython 3.11 (0.64-0.8 ms; the slow state of that host is 1.3-1.6 ms)
KERNEL_REF_S = 0.75e-3

_KERNEL_POLY = {(i, j): Fraction(3 * i + 7 * j + 1, 2 * j + 5 * i + 3) for i in range(5) for j in range(5 - i)}


def kernel() -> dict:
    """The square of a 15-term polynomial with Fraction coefficients."""
    acc: dict = {}
    for (i, j), a in _KERNEL_POLY.items():
        for (k, l), b in _KERNEL_POLY.items():
            key = (i + k, j + l)
            acc[key] = acc.get(key, 0) + a * b
    return acc


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Kernel samples taken on a timer signal while the sampler is running."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.handler_s: list[float] = []
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        # no collection inside the kernel: it would time the interrupted
        # work's garbage, not the host
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.handler_s.append(time.perf_counter() - t0)

    def slowdown(self, a: float, b: float) -> float:
        """Mean kernel time near [a, b] over ``KERNEL_REF_S``."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            # too few inside the window (a short interval, or a long C call
            # that held the signal back): take the nearest samples
            mid = bisect.bisect_left(self.starts, (a + b) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(self.kernel_s[lo:hi]) / KERNEL_REF_S

    def adjusted(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] of perf_counter time would take at
        the reference speed, without the sampler's own time."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        own = sum(self.handler_s[lo:hi])
        return max(b - a - own, 0.0) / self.slowdown(a, b)
