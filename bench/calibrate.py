"""Calibrated timing on a shared machine.

On a shared host the speed of a core changes by up to twice within a second,
as other tenants come and go, and CPU time rises with wall time, so neither
clock gives a steady figure. A fixed calibration loop slows down in step
with the program. While a call runs, an interval timer interrupts it every
INTERVAL_S to time the loop once; the loop is also timed just before the
call. The call's wall time, less the time the loop took, divided by the mean
loop time, is its cost in loops. Times REF_S, that is the call's time on a
core as fast as the reference core.

The loop is a mix of what a2cf spends its time on: dict updates in the
interpreter and numpy operations on small arrays. It depends on nothing in
a2cf, so a change to the program does not change it.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.02
# The loop's mean time inside a2cf calls on a core in its fast state, on the
# 2-core x86-64 Xeon VM the benchmark was written on: with it, calibrated
# times match the wall times of the fastest calls seen there. It only sets
# the scale of the reported times.
REF_S = 0.000340

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((16, 16))
_BLOCKS = [_RNG.standard_normal((32, 16)) for _ in range(16)]
_KEYS = [f"k{i}" for i in range(1000)]


def loop() -> float:
    """Run the calibration loop once; returns its wall time in seconds."""
    started = time.perf_counter()
    counts = {}
    for i, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0) + i
    for block in _BLOCKS:
        hidden = np.tanh(block @ _WEIGHTS)
        np.argsort(hidden[hidden[:, 0] > 0].sum(axis=0))
    return time.perf_counter() - started


@dataclass
class Timing:
    wall: float = 0.0       # wall time of the call, calibration excluded
    seconds: float = 0.0    # the same at the reference core's speed
    loops: int = 0          # calibration samples behind `seconds`


class Clock:
    """Times one call at a time with calibration samples taken during it."""

    def __init__(self):
        self._samples = []
        self._spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:      # a tick that arrives during a tick is dropped
            return
        self._busy = True
        started = time.perf_counter()
        self._samples.append(loop())
        self._spent += time.perf_counter() - started
        self._busy = False

    @contextmanager
    def timing(self):
        """Time the body of the `with` block; fills the yielded Timing."""
        self._samples = [loop()]
        self._spent = 0.0
        result = Timing()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            yield result
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            result.wall = wall - self._spent
            result.loops = len(self._samples)
            result.seconds = (result.wall * REF_S
                              / statistics.fmean(self._samples))
