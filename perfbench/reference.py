"""Host-speed reference: a fixed kernel timed beside the workload.

On a shared host the same single-threaded code runs up to 1.5x slower for
tens of seconds at a time, so raw wall-clock times from runs a minute apart
are not comparable. The benchmark runs this kernel before every query (and
before every set-up sample) and scales each time by NOMINAL_S over the
kernel's time around it: times are reported as they would be on a host that
runs the kernel in NOMINAL_S. The kernel mixes an interpreter loop with small
numpy operations, as the solver does; it does not touch the program.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.002
_A = np.linspace(0.0, 1.0, 4096)
_B = _A[::-1].copy()


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * i
    for _ in range(100):
        acc += float((_A * _B).sum())
    return time.perf_counter() - t0
