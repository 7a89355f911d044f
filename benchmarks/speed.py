"""Machine-speed calibration for the timed run.

On a small shared VM the load on the host changes the speed of the vCPUs
by up to 1.5x, over seconds and over minutes, which is more than the
bounds the benchmark gates on.  To take that drift out, ``--trace 0``
times a fixed kernel before the first op and after every op.  The kernel
does not call noa, so a change to noa does not change it; it mixes a
pure-Python loop with numpy sorting and counting over 262144 rows, as a
noa op does.  Every time the run reports is multiplied by REFERENCE_S
over the run's median kernel time, so it reads as on a machine where the
kernel takes REFERENCE_S (about its median on the 2-vCPU Xeon VM the
benchmark was written on).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.085
_ROWS = np.random.default_rng(0).integers(0, 512, size=(262144, 3))


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel, in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    for j in range(2):
        np.argsort(_ROWS[:, j], kind="stable")
        np.bincount(_ROWS[:, j] * 512 + _ROWS[:, j + 1], minlength=512 * 512)
    return time.perf_counter() - t0


def factor(kernel_times: list[float]) -> float:
    """Scale factor of a run from the kernel times measured during it."""
    return REFERENCE_S / statistics.median(kernel_times)
