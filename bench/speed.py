"""Speed probes: fixed kernels timed beside the measured work.

The benchmark's host is shared.  Its speed changes by up to 2x within
seconds and stays changed for tens of seconds, so wall time alone tracks
the host's phase more than the library.  A probe times a fixed kernel that
does not touch tsnoether just before and just after a measured span, and
the span's seconds are divided by the mean slowdown the two probes show:
seconds at the speed the reference machine (2-vCPU Intel Xeon) has when
nothing else loads it.  A change to the library moves the span and not
the probe, so it shows in the scaled time in full.

Interpreted code and memory-bound array code slow by different factors
(1.8x against 1.3x in the same phase), so a workload is probed with the
kernels closest to its own work, each with a fitted weight: the 1-D
workloads with a per-point Python loop, the lattice one mostly with an
array kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3  # kernel runs per probe; the median is kept

_U = np.array([0.3, 0.2])
_V = np.array([0.1, -0.4])
_LATTICE = np.linspace(0.0, 1.0, 16**4).reshape(16, 16, 16, 16)
_BUFFER = np.empty_like(_LATTICE)


def _density(t, u, v):
    return float(0.5 * v @ v + 0.25 * (u @ u) ** 2 + np.sin(t) * np.sum(u))


def python_kernel() -> float:
    """A per-point loop calling a density on 2-vectors, like the 1-D code."""
    s = 0.0
    for i in range(500):
        s += _density(0.01 * i, _U, _V)
    return s


def array_kernel() -> float:
    """Differences of a 16^4 array along each axis, like the lattice
    kernels.  Results go to a buffer made once, so the kernel's time does
    not depend on how the allocator was left by the work it is timed
    beside."""
    s = 0.0
    for _ in range(4):
        for axis in range(4):
            lo = [slice(None)] * 4
            hi = [slice(None)] * 4
            lo[axis], hi[axis] = slice(None, -1), slice(1, None)
            out = _BUFFER[tuple(lo)]
            np.subtract(_LATTICE[tuple(hi)], _LATTICE[tuple(lo)], out=out)
            np.multiply(out, out, out=out)
            s += float(out.sum())
    return s


# Kernel and its median time on the reference machine when unloaded.
KERNELS = {
    "python": (python_kernel, 3.0e-3),
    "arrays": (array_kernel, 3.3e-3),
}


class Probe:
    """Times its kernels on demand.  A probe's sample is the host's
    slowdown as the workload feels it: the product over kernels of
    (kernel's median time over REPEATS runs / its reference time) ** weight.
    A weight is the share of a kernel's slowdown that the workload's tasks
    take on, fitted by least squares of log task time on log kernel times
    over a few hundred tasks on the reference machine."""

    def __init__(self, weights: dict[str, float]):
        self.weights = weights
        self.samples: list[float] = []

    def __call__(self) -> float:
        slowdown = 1.0
        for name, weight in self.weights.items():
            kernel, ref_s = KERNELS[name]
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            slowdown *= (statistics.median(times) / ref_s) ** weight
        self.samples.append(slowdown)
        return slowdown

    def scale(self, raw_s: float, before: float, after: float) -> float:
        """``raw_s`` in seconds at the reference machine's unloaded speed."""
        return raw_s / (0.5 * (before + after))
