"""Machine-speed sampling, so timings can be compared across a shared host's swings.

On a shared 2-core host the speed of one core drifts by tens of percent over
a few seconds. While a stage runs, a timer signal runs a fixed pure-Python
kernel every ``INTERVAL_S`` seconds in the benchmark's own thread and records
its time k. Each sample stands for ``INTERVAL_S`` of wall time during which
the machine did work in proportion to 1/k, so a stage's wall time, less the
time spent in the kernel, times ``KERNEL_REF_S * mean(1/k)`` is its time in
reference seconds: seconds on a machine where the kernel takes
``KERNEL_REF_S``. (Scaling by the median k instead tracked the swings about
a third as well.) The kernel is the benchmark's own code, so no change to
encsum can move it.
"""

from __future__ import annotations

import gc
import signal
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.1
# About the kernel's time, run from the timer signal, on the 2-core host the
# benchmark was tuned on, so a reference second is close to a second there.
KERNEL_REF_S = 0.0004
# Stages too short to hold this many samples use the most recent ones.
MIN_SAMPLES = 5


_WORDS = ("patient", "was", "admitted", "with", "chest", "pain", "and", "troponin", "was", "negative")
_OTHER = ("troponin", "negative", "patient", "with", "pain", "was", "admitted", "and", "chest", "denies")


def kernel() -> int:
    """A fixed mix of list, dict, string and integer work, about 0.5 ms.

    Part of it is a small LCS table, the shape of encsum's hottest code.
    """
    total = 0
    for _ in range(3):
        prev = [0] * (len(_OTHER) + 1)
        for x in _WORDS:
            cur = [0]
            for j, y in enumerate(_OTHER, start=1):
                cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
            prev = cur
        total += prev[-1]
    for _ in range(3):
        table: dict[str, int] = {}
        for i in range(200):
            key = str(i)
            table[key] = len(key) + total
            total += i * i
        total += len(" ".join(table).split())
    return total


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        # A collection triggered by the kernel's allocations would cost in
        # proportion to encsum's heap, not to the machine's speed.
        collecting = gc.isenabled()
        gc.disable()
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.busy_s += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def warm_up(self, seconds: float) -> None:
        """Run the kernel back to back so the first timed call has samples to go by."""
        until = perf_counter() + seconds
        while perf_counter() < until:
            kernel()

    def timed(self, fn):
        """Call ``fn``; return (its result, wall seconds less sampling, reference seconds)."""
        n0, busy0 = len(self.samples), self.busy_s
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0 - (self.busy_s - busy0)
        window = self.samples[n0:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:] or [KERNEL_REF_S]
        return result, wall, wall * KERNEL_REF_S * fmean(1 / k for k in window)
