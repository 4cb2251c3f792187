"""Host-speed calibration of the benchmark's timings.

On a shared host the CPU speed one process gets drifts by 10-30% over
minutes, in stretches that no run length averages away.  On the 2-core host
this benchmark was built on, the median time of a fixed ``eig_sturm`` call in
20-second windows had an interquartile spread of 0.32 of its median, and of
0.06 once divided by the in-process kernel's time measured next to it; a
short CLI call's spread in 5-second windows fell from 0.09 to 0.03 once
divided by the time of a child process that imports numpy.

So a reference of the same kind of work as the case, which runs no fttlab
code, is timed before and after every timed case: the in-process kernel for
cases that run in the benchmark's process, a numpy-importing child for cases
that start a process.  Its time over its nominal time is the host's current
slowness, and a case's time is divided by the mean slowness around it.
Calibrated timings are therefore seconds at a nominal host speed.  A change
to fttlab cannot move either reference, so it cannot move the scale.  Raw
timings are kept in the benchmark's record next to the calibrated ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

KERNEL_S = 1e-3  # nominal time of the in-process kernel
CHILD_S = 0.15  # nominal time of a child process that imports numpy

_DIAG = np.linspace(-1.0, 1.0, 48)
_OFF2 = np.full(47, 0.81)
_MATRIX = 0.5 * np.eye(6)


def _kernel() -> float:
    # the three kinds of work fttlab's hot paths do: float arithmetic in the
    # interpreter, arithmetic on numpy scalars, and small numpy products
    total = 0.0
    for i in range(12000):
        total += i * 0.5
    for lam in (-0.75, -0.25, 0.25, 0.75):
        d = _DIAG[0] - lam
        for i in range(1, 48):
            d = _DIAG[i] - lam - _OFF2[i - 1] / d
            total += d < 0.0
    v = np.ones(6)
    for _ in range(160):
        v = _MATRIX @ v + 1.0
    return total + float(v[0])


def in_process(repeats: int = 3) -> float:
    """Slowness for in-process work: the kernel's median time over its nominal time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2] / KERNEL_S


def child_process(env: dict) -> float:
    """Slowness for work in a fresh process: a numpy-importing child's time over its nominal time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                   timeout=60, check=True)
    return (time.perf_counter() - start) / CHILD_S
