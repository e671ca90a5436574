"""Host-speed calibration.

A shared 2-core Intel Xeon host changed speed by up to 2x within
seconds, and by tens of percent between minutes; the process's CPU time
followed its wall time, so the cause is the host, not preemption.
Every interpreter therefore also times a fixed calibration kernel that
does not use degenfrac, and run.py reports the end-to-end times scaled
to a reference host speed:

    reported = measured * REFERENCE_S / mean(calibration samples of the run)

The raw times are kept in the info line.  The kernel mixes the three
kinds of work the workloads do: a scalar Python loop (the scalar
Mittag-Leffler routes), small-array numpy calls (the ray-fit evaluation)
and a memory-bound sweep over a 4 MB array (the FD history).  A sample
is the geometric mean of the three times.
"""
import math
from time import perf_counter

import numpy as np

# mean sample on that host (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
REFERENCE_S = 0.007

_X = np.linspace(-1.0, 1.0, 129)
_C = np.ones(97)
_A = np.ones((1024, 513))


def _scalar():
    acc = 0.0
    for k in range(20000):
        acc += math.sin(k * 1e-3)
    return acc


def _small_arrays():
    for _ in range(60):
        np.polynomial.chebyshev.chebval(_X, _C)


def _memory():
    for _ in range(3):
        (np.diff(_A, axis=0) * 1.5).sum(axis=0)


def sample() -> float:
    logs = 0.0
    for kernel in (_scalar, _small_arrays, _memory):
        t0 = perf_counter()
        kernel()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / 3.0)


def run_for(seconds: float) -> list:
    """Calibration samples for about `seconds` (none if it is <= 0)."""
    out = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        out.append(sample())
    return out
