"""CPU-speed sampler that normalizes wall times on a shared host.

On a virtual machine whose cores are shared with other tenants, the speed
of one vCPU drifts by up to about 1.9x over seconds to minutes (measured
with this module's kernel on a 2-vCPU Intel Xeon model 207 guest), and the
two vCPUs drift independently. Raw wall times then spread by 15-35 %
between runs, which hides any change a later commit makes.

``SpeedSampler`` pins the process to one CPU and runs a fixed
kernel (about 0.3 ms) every ``PERIOD_S`` in a background thread on that CPU. The kernel
mixes interpreter work and small-array numpy transcendental and complex
arithmetic, like the package's hot paths; its arrays stay below numpy's
GIL-release size, so the kernel never runs alongside the main thread.
``factor(t0, t1)`` is the mean of ``KERNEL_REF_S / kernel time`` over the
samples taken in ``[t0, t1)``; wall time multiplied by it is the time the
same work takes at the reference speed.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np

# Kernel time on the reference machine in its fast state (10th percentile;
# 2-vCPU Intel Xeon model 207, Python 3.11, numpy 2.4).
KERNEL_REF_S = 2.8e-4
PERIOD_S = 0.02

_X = np.linspace(0.0, 3.0, 256)


def kernel() -> float:
    """Run the fixed calibration work once; return its duration in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(600):
        s += math.sin(i * 0.001)
    for _ in range(12):
        np.cos(_X) * np.sin(_X) + np.exp(-_X)
    for _ in range(6):
        np.exp(1j * _X) * (np.cos(_X) - 1j * np.sin(_X))
    return time.perf_counter() - t0


class SpeedSampler:
    """Background sampler of this process's CPU speed."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.samples = []
        self.sample()
        threading.Thread(target=self._loop, daemon=True).start()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, kernel()))

    def _loop(self) -> None:
        while True:
            time.sleep(PERIOD_S)
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed factor over [t0, t1); the nearest sample if none fell in it."""
        ratios = [KERNEL_REF_S / dt for t, dt in self.samples if t0 <= t < t1]
        if not ratios:
            nearest = min(self.samples, key=lambda s: abs(s[0] - t0))
            ratios = [KERNEL_REF_S / nearest[1]]
        return sum(ratios) / len(ratios)
