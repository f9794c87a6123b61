"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its cores with other work, and their speed drifts by up
to 1.6x over a minute, far more than any bound a regression check can use.
Two fixed loops that use no jsda code, one of Python bytecode (dicts, tuples,
math.log, math.fsum) and one of small numpy calls (128x16 matmuls and tanh,
the sizes the trainer uses), are timed right before and right after each timed
operation, and the operation's time is scaled by their mean speed relative
to the reference figures below: times are multiplied by the speed, rates
divided. On ten 25-second runs per workload on 2 shared cores this cut the
spread of the run medians from 12-44 % to 2-9 %.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds each loop takes at the reference speed (its typical time on the
# 2-core x86-64 machine the benchmark was written on, Python 3.11, numpy 2.4).
PYTHON_LOOP_S = 0.0080
NUMPY_LOOP_S = 0.0110

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 16))
_W = _rng.standard_normal((16, 16)) / 4.0


def _python_loop() -> float:
    counts: dict = {}
    values = []
    for i in range(12000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0.0) + 1.0
        values.append(math.log(i + 1.0) * 0.5)
    return math.fsum(values) + len(counts)


def _numpy_loop() -> float:
    x = _X
    for _ in range(400):
        h = np.tanh(x @ _W.T + 1.0)
        x = h - h.mean(axis=0)
    return float(x[0, 0])


def speed() -> tuple[float, float]:
    """(machine speed relative to the reference, seconds the measurement took)."""
    t0 = time.perf_counter()
    _python_loop()
    t1 = time.perf_counter()
    _numpy_loop()
    t2 = time.perf_counter()
    return math.sqrt(PYTHON_LOOP_S / (t1 - t0) * NUMPY_LOOP_S / (t2 - t1)), t2 - t0
