"""A stopwatch that scales host time to a fixed reference speed.

A 2-vCPU VM on a shared host (Python 3.11, numpy 2.4) changes speed by up
to 2x over seconds to minutes. The same fixed work took between
0.67 s and 1.30 s from one second to the next, in process time as well as in
wall time. A figure averaged over a 30 s run still moved by about 16%
(interquartile range ÷ median) from run to run. So the clock samples how
fast the host runs a fixed calibration kernel, every SAMPLE_S seconds, from
a SIGALRM handler. It scales each stretch of time by the host speed over
that stretch. The kernel is plain numpy and Python, like the program's hot
loop, and shares no code with the program. The time spent in the handler
is left out of every lap. On that VM, scaling by kernel samples took the
run-to-run spread of a fixed workload from 0.26 to 0.01.

A scaled second is the time the work would take on a host that runs the
kernel in REFERENCE_S. Work the program adds or removes shows in full. Only
the host's changes of speed cancel out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel time on the reference host (its median on that VM when idle).
# Changing it rescales every timing metric.
REFERENCE_S = 0.00042
SAMPLE_S = 0.05

_rng = np.random.default_rng(20231003)
_VALUES = _rng.random(64)
_INDEX = _rng.integers(0, 64, 16)


def _kernel():
    acc = 0.0
    seen = {}
    for i in range(100):
        idx = np.flatnonzero(_VALUES[_INDEX] > 0.5)
        acc += float(_VALUES[idx].sum())
        seen[i % 17] = acc
    return acc


class Clock:
    """`lap()` returns the scaled seconds since the previous lap or restart.
    Use it as a context manager: sampling runs between enter and exit."""

    def __init__(self):
        self.factors = []
        self.total = 0.0  # scaled seconds of every lap so far
        self.raw_total = 0.0
        self._factor = 1.0
        self._last = time.perf_counter()
        self._scaled = self._raw = 0.0  # since the last lap, up to _last

    def _sample(self):
        """Best of three kernel runs: the first runs with the caches as the
        program left them, the later ones measure the CPU alone."""
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t)
        factor = REFERENCE_S / best
        self.factors.append(factor)
        return start, factor

    def _tick(self, signum, frame):
        start, factor = self._sample()
        self._raw += start - self._last
        self._scaled += (start - self._last) * (self._factor + factor) / 2
        self._factor = factor
        self._last = time.perf_counter()

    def __enter__(self):
        self._factor = self._sample()[1]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.restart()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def lap(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            raw = self._raw + now - self._last
            scaled = self._scaled + (now - self._last) * self._factor
            self.total += scaled
            self.raw_total += raw
            self._scaled = self._raw = 0.0
            self._last = now
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return scaled

    def restart(self):
        """Drop the time since the last lap (benchmark bookkeeping)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self._scaled = self._raw = 0.0
        self._last = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
