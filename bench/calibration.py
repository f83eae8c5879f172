"""Host-speed calibration for timings taken on a shared machine.

The speed of a shared host drifts by tens of percent over minutes, and
all code slows together, so raw timings from two runs of the same code
can differ more than a regression would.  ``kernel`` is a fixed piece
of work that mixes what ``ranksets`` spends its time on: Python object
churn, NumPy resampling and array reductions, and big-integer binomial
sums.  It never calls ``ranksets``, so changes to the package do not
move it.  A worker runs the kernel between ops every
``INTERVAL_S`` seconds; ``run.py`` divides the run's op timings by its
median kernel time and multiplies them by ``NOMINAL_S``, which reports
them at a reference host speed.  Set-up time is reported raw: process
start and imports did not follow the kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Seconds between two kernel runs in a worker.
INTERVAL_S = 0.5
#: Times the fixed work is repeated in one kernel run.  The host's speed
#: flips between states within milliseconds, so one pass (about 4 ms)
#: is a noisy reading; the sum of several passes gives the average
#: speed around the run, which is what an op of a second or more sees.
REPEATS = 6
#: Median kernel time on the reference host (2 vCPU VM, Python 3.11,
#: NumPy 2.4); only sets the scale of the reported timings.
NOMINAL_S = 0.025

_SHARES = np.arange(1, 21, dtype=float) / 210.0


def kernel() -> float:
    """Run the fixed work ``REPEATS`` times and return the seconds taken."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        rng = np.random.default_rng(12345)
        star = rng.multinomial(400, _SHARES, size=200) / 400.0
        diffs = np.abs(star[:, :, None] - star[:, None, :]).max(axis=(1, 2))
        np.sort(diffs)
        table = {(j, k): frozenset(range(j % 7)) for j in range(60) for k in range(12)}
        ordered = sorted(table, key=lambda pair: (len(table[pair]), pair))
        tail = sum(math.comb(1200, i) for i in range(len(ordered) // 2, 1200, 25))
        if tail <= 0:
            raise AssertionError("calibration kernel lost its result")
    return time.perf_counter() - t0
