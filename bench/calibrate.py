"""Timing quoted at a reference machine speed, measured by a fixed kernel.

On the shared 2-core box the benchmark was defined on, the same scenario's
time swings by more than half from one ten-second window to the next, while
its ratio to this kernel, run in the same window, stays within a few
percent.  So the kernel runs every ``PERIOD`` seconds from a timer signal
for the whole run, and each timed interval is quoted at reference speed:

    normalized = raw * REFERENCE_S / mean(kernel samples within WINDOW of it)

The kernel's own time is taken out of the raw time of the interval it
interrupted.  Its work mirrors what the ``phhs`` scenarios spend their time
on (Python calls, small dicts and 4-vector numpy arithmetic) but uses no
``phhs`` code, so no change to the package changes the kernel's time.
"""

import signal
import statistics
import time
from array import array

import numpy as np

# Kernel seconds on a quiet core of that box (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0045
PERIOD = 0.2
WINDOW = 0.5

_A = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


def _field(y):
    env = {f"x{k}": y[k] for k in range(4)}
    return _A @ y + 0.1 * np.sin(np.array([env["x0"], env["x1"], env["x2"], env["x3"]]))


def kernel(steps=150):
    y = np.array([1.0, 0.0, 0.5, 0.0])
    h = 1e-3
    for _ in range(steps):
        k1 = _field(y)
        k2 = _field(y + 0.5 * h * k1)
        k3 = _field(y + 0.5 * h * k2)
        k4 = _field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class Clock:
    """Times calls while a timer signal samples the kernel; ``stop`` ends the sampling."""

    def __init__(self):
        self.tick_start = array("d")
        self.tick_end = array("d")
        self.intervals = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.tick_start.append(t0)
        self.tick_end.append(time.perf_counter())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """``(fn(), index)``; ``seconds(index)`` gives the call's times once sampling is done."""
        t0 = time.perf_counter()
        result = fn()
        self.intervals.append((t0, time.perf_counter()))
        return result, len(self.intervals) - 1

    def kernel_samples(self):
        return [b - a for a, b in zip(self.tick_start, self.tick_end)]

    def seconds(self, index):
        """(raw, normalized) seconds of a timed call, kernel interruptions taken out."""
        t0, t1 = self.intervals[index]
        ticks = list(zip(self.tick_start, self.tick_end))
        raw = (t1 - t0) - sum(b - a for a, b in ticks if t0 <= a < t1)
        near = [b - a for a, b in ticks if t0 - WINDOW <= a <= t1 + WINDOW]
        if not near:
            raise RuntimeError("no kernel sample near a timed call; is the timer signal blocked?")
        return raw, raw * REFERENCE_S / statistics.fmean(near)
