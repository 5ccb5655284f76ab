"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on change speed by up to 2x for
seconds at a time, with the process on its core the whole time: CPU time
and wall time grow together.  A fixed calibration kernel, written here and
independent of so3mpc, samples the machine's speed while the benchmark
runs: a profiling timer interrupts the process every ``PERIOD_S`` of CPU
time, and the signal handler times one kernel call.  An operation's
*scaled* time is its measured time, less the kernel calls inside it, times
the mean of ``REFERENCE_S`` over the kernel times sampled during it: the
time the operation would have taken at the speed at which the kernel takes
``REFERENCE_S``.

The kernel is built like the controller's inner loops (Python control flow
around 3x3 numpy products, norms, trigonometry and small solves), so that
both slow down alike.  A change to so3mpc cannot change the kernel, so a
faster controller shows as a smaller scaled time, and the parent and the
child of a change are measured against the same kernel.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Kernel time at the nominal speed; about the kernel's fastest time on a
# 2-vCPU x86_64 virtual machine with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0009
KERNEL_ITERS = 50
# CPU time between two samples; the kernel adds about 2 to 4 % to it.
PERIOD_S = 0.05

_INERTIA = np.diag([1.0, 1.2, 1.5])


def kernel(iters: int = KERNEL_ITERS) -> float:
    """Fixed work: rotate by Rodrigues' formula and solve a 3x3 system, ``iters`` times."""
    rotation = np.eye(3)
    v = np.array([0.1, 0.2, 0.3])
    acc = 0.0
    for _ in range(iters):
        theta = float(np.linalg.norm(v))
        k = v / theta
        k_hat = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        rotation = (np.eye(3) + math.sin(theta) * k_hat + (1.0 - math.cos(theta)) * (k_hat @ k_hat)) @ rotation
        acc += float(np.trace(np.linalg.solve(_INERTIA + rotation, _INERTIA)))
        v = v + 1e-3
    return acc


KERNEL_CHECKSUM = kernel()


class Calibrated:
    """Times operations and scales them to the nominal speed.

    Use it as a context manager: sampling runs while it is entered.
    ``kernel_s`` keeps every kernel time.  A timed operation leaves the
    kernel calls inside it out of its time.  ``enabled=False`` samples
    nothing and scales nothing (for traced runs, whose spans must hold only
    so3mpc).
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, enabled: bool = True, period_s: float = PERIOD_S):
        self.enabled = enabled
        self.period_s = period_s
        self.kernel_s: list[float] = []
        self.kernel_total_s = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self):
        if self.enabled:
            self._previous_handler = signal.signal(signal.SIGPROF, self._on_tick)
            signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler)
        return False

    def _on_tick(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> float:
        """Time one kernel call and keep it."""
        self._busy = True
        try:
            t0 = self.clock()
            checksum = kernel()
            elapsed = self.clock() - t0
        finally:
            self._busy = False
        if checksum != KERNEL_CHECKSUM:
            raise RuntimeError("the calibration kernel gave a different result")
        self.kernel_s.append(elapsed)
        self.kernel_total_s += elapsed
        return elapsed

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return its value, its measured time and its scaled time."""
        first = len(self.kernel_s)
        kernel_before = self.kernel_total_s
        t0 = self.clock()
        value = fn(*args, **kwargs)
        raw = self.clock() - t0 - (self.kernel_total_s - kernel_before)
        if not self.enabled:
            return value, raw, raw
        during = self.kernel_s[first:] or [self.sample()]
        return value, raw, raw * REFERENCE_S * float(np.mean(1.0 / np.asarray(during)))

    def speed_factor(self) -> float:
        """Median kernel time over ``REFERENCE_S``: 2.0 means the machine ran at half speed."""
        return float(np.median(self.kernel_s)) / REFERENCE_S if self.kernel_s else 1.0
