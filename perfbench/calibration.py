"""Host-speed calibration of the benchmark's timings.

The host this benchmark runs on is shared, and its speed drifts: the same
0.6 s sweep call takes anywhere from 0.6 s to 1.2 s within a few minutes,
with CPU time drifting along with wall time, so neither longer runs nor
medians over more calls remove the drift.  A fixed kernel timed next to each
measurement slows down with the host and not with the program, so every
timing ``t`` is reported as

    t * REFERENCE_S / (kernel time measured next to t)

that is, in seconds at the host speed at which the kernel takes
``REFERENCE_S``.  The kernel mimics the program's work: small dense numpy
algebra (4 x 4 products, symmetric eigenvalues, determinants) driven from a
Python loop.  It lives in the benchmark, not in ``mwqi``, so a change to the
program cannot change it.  Raw wall times are kept next to the scaled ones
in every result record.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 2000
REFERENCE_S = 0.025  # the kernel's time on an unloaded 2-vCPU Xeon VM at 2.1 GHz


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel, after one warm-up step."""
    base = np.eye(4) + 0.1
    np.linalg.eigvalsh(base @ base.T)
    t0 = time.perf_counter()
    for k in range(ITERATIONS):
        m = base * (1.0 + k * 1e-6)
        np.linalg.eigvalsh(m @ m.T)
        math.sqrt(abs(np.linalg.det(m)))
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference host speed, from the kernel times around it."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
