"""Wall time scaled to a reference machine speed.

On a shared 2-vCPU x86-64 virtual machine (CPython 3.11.7) the same
Python code ran at speeds up to 1.7x apart, in phases of seconds to minutes
(one n <= 2 scan took 31-61 ms within one minute), and process CPU time
swings just as much.  Raw times of whole runs spread by 10-27 % across
runs.  A fixed pure-Python calibration loop slows with the machine, so
every time the benchmark reports is

    wall time * REFERENCE_NS / (median calibration loop time)

with the median taken over marks made between the ops of the same
measurement (every 50 ms or so, and around each op that takes longer).
That is the time the work would take on a machine where the loop takes
REFERENCE_NS.  One factor per measurement keeps the shape of the latency
distribution; per-op factors made the p99 noisier.  The loop does not
touch nbhdmc, so a change to the program moves the scaled time by the
same factor as the wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# The loop's fast-phase time on a shared 2-vCPU x86-64 virtual machine
# (CPython 3.11.7), so scaled times read about as fast-phase wall times
# there.
REFERENCE_NS = 300_000

MARK_EVERY_NS = 50_000_000


def _loop() -> int:
    table = {}
    for i in range(1200):
        table[(i, i & 7)] = i
    total = 0
    for (a, b), v in table.items():
        if isinstance(v, int):
            total += a ^ b
    return total


def calibration_ns() -> int:
    """Fastest of three runs of the calibration loop."""
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        _loop()
        took = perf_counter_ns() - t0
        best = took if best is None else min(best, took)
    return best


class Clock:
    """Calibration marks taken between timed pieces of work; `factor`
    scales the wall times of all of them by one number, so the shape of
    their distribution is kept."""

    def __init__(self):
        self.loops: list[int] = []
        self._last_ns = 0

    def mark(self) -> None:
        self.loops.append(calibration_ns())
        self._last_ns = perf_counter_ns()

    def maybe_mark(self) -> None:
        """Mark unless the last mark is recent."""
        if perf_counter_ns() - self._last_ns >= MARK_EVERY_NS:
            self.mark()

    def time(self, fn, *args):
        """(fn(*args), its wall ns), with a mark either side."""
        self.mark()
        t0 = perf_counter_ns()
        out = fn(*args)
        t1 = perf_counter_ns()
        self.mark()
        return out, t1 - t0

    def factor(self) -> float:
        """Reference over the median loop time of all marks."""
        return REFERENCE_NS / statistics.median(self.loops)
