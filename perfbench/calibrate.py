"""Host-speed calibration for the wall metrics.

The benchmark runs on shared hosts whose speed changes under it.  On a
shared 2-vCPU virtual machine the CPU was seen to switch between a fast and
a slow state, about 1.8x apart, every few seconds to minutes.  CPU time slows exactly as
wall time does, so it cannot tell the states apart.  A fixed kernel can.  It
lives here, outside the library, so no change to the library moves it.

The runner samples the kernel every :data:`INTERVAL_S` during a timed phase,
between ops.  An interval's host speed is ``REFERENCE_S`` over the median
kernel time sampled near it.  Wall metrics are scaled by that speed, which
turns them into wall time at the reference speed.  The kernel is a Python
loop over small numpy operations, like the simulator's supersteps, so both
slow down alike.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

import numpy as np

__all__ = ["Calibrator", "REFERENCE_S", "kernel"]

#: Kernel time at the reference speed, the fast state of that 2-vCPU
#: machine.  Scaled wall metrics read as wall time at that speed.
REFERENCE_S = 0.003

#: Least time between two kernel samples.
INTERVAL_S = 0.2

#: Samples within this distance of an instant set its speed.
WINDOW_S = 0.3

#: Loop trips of one kernel run (about 3 ms at the reference speed).
_ROUNDS = 200

_VALUES = np.arange(256, dtype=np.float64)
_BINS = (np.arange(256) * 7) % 64


def kernel() -> float:
    """A fixed mix of Python dispatch and small numpy calls."""
    shifted = _VALUES[::-1].copy()
    total = 0.0
    for step in range(_ROUNDS):
        summed = _VALUES + shifted
        peak = summed.max()
        first = int(np.argmax(summed > peak * 0.5))
        counts = np.bincount(_BINS, minlength=64)
        total += float(peak) + first + int(counts[step % 64])
        shifted = np.roll(shifted, 1)
    return total


class Calibrator:
    """Kernel samples over a run, and the host speed they imply."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last = -float("inf")
        #: ``(midpoint, seconds)`` of every kernel run, in time order.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        began = perf_counter()
        kernel()
        ended = perf_counter()
        with self._lock:
            self.samples.append(((began + ended) / 2, ended - began))
            self._last = ended

    def maybe_sample(self) -> None:
        """Sample if :data:`INTERVAL_S` has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def speed_at(self, instant: float) -> float:
        """Host speed relative to the reference near ``instant`` (>1 is faster)."""
        with self._lock:
            samples = list(self.samples)
        if not samples:
            raise ValueError("no calibration samples")
        near = [seconds for midpoint, seconds in samples if abs(midpoint - instant) <= WINDOW_S]
        if not near:
            near = [min(samples, key=lambda sample: abs(sample[0] - instant))[1]]
        return REFERENCE_S / statistics.median(near)
