"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared host the speed of the same code drifts by 20-40% over
minutes, and whole runs drift with it.  The benchmark times this kernel
between the ops of a run and reports its timings in reference
seconds: wall seconds scaled by ``REFERENCE_S / median(kernel seconds)``.
The kernel does the kinds of work the engine does (Philox integers, the
inverse normal CDF, a small matrix product, exp, a loop over rows and
many small NumPy calls) and never calls the engine, so a change to the
engine cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import ndtri

# Median kernel time on the reference machine (README.md, reference figures).
REFERENCE_S = 0.1

_ROWS, _COLS = 128, 8192
_FACTOR = np.tril(np.random.default_rng(0).standard_normal((_ROWS, _ROWS))) / _ROWS


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    start = perf_counter()
    stream = np.random.Generator(np.random.Philox(12345))
    for _ in range(2):
        raw = stream.integers(0, 1 << 53, size=(_ROWS, _COLS), dtype=np.uint64)
        values = np.exp(_FACTOR @ ndtri((raw.astype(np.float64) + 0.5) * 2.0**-53))
        total = np.zeros(_COLS)
        for row in values:
            total = total + row
    small = np.arange(64.0) * 1e-3
    for _ in range(150):
        float(np.sum(np.exp(small)))
    return perf_counter() - start
