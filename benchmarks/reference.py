"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the throughput of one CPU drifts by 25-45%
over seconds to minutes, for numpy and pure-Python work alike. The
per-process CPU time drifts with the wall time, so this is not time spent
descheduled; the machine switches between a fast and a slow state that
each last seconds. Timing the same fixed kernel between and inside the
benchmark's operations measures that speed where it happens. Each
operation's wall time is then rescaled to the reference speed:

    normalised = wall * REF_S / (mean kernel time around the operation)

so a program change still moves the result in proportion, while a slow
phase of the machine moves the operation and its reference together.

The kernel is built from four kinds of work: pure-Python dictionary
updates (interpreter overhead), tiny numpy calls (tape overhead), float32
GEMMs and in-place streaming passes over an 8 MiB array. The slow state
slows each kind by a different amount, so each workload sets its own mix,
close to its own kind of work (see README.md). The kernel never calls
ensograph and allocates nothing large while it runs.
"""

from __future__ import annotations

import bisect
import time
from array import array
from typing import NamedTuple

import numpy as np

# Nominal duration of one kernel call, in seconds. Normalised times are
# "seconds at the speed where the kernel takes REF_S".
REF_S = 0.010
WARMUP_CALLS = 3


class Mix(NamedTuple):
    """Repetitions of each part of the kernel."""

    python: int  # dictionary updates
    numpy: int  # tanh-scale-add on a 4x8 array
    gemm: int  # 256x256 float32 products
    stream: int  # multiply-add passes over 8 MiB


class Reference:
    """Times the kernel on demand and rescales operations by the samples around them."""

    def __init__(self, mix: Mix):
        self.mix = mix
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((4, 8))
        self._gemm = rng.standard_normal((256, 256)).astype(np.float32)
        self._stream = rng.standard_normal(1 << 21).astype(np.float32)  # 8 MiB
        self.stamps = array("d")  # midpoint of each sample
        self.durations = array("d")
        self.paused = 0.0  # total time spent in the kernel
        for _ in range(WARMUP_CALLS):
            self._kernel()

    def _kernel(self):
        acc: dict[int, float] = {}
        for i in range(self.mix.python):
            acc[i & 63] = acc.get(i & 63, 0.0) + i * 0.5
        x = self._small
        for _ in range(self.mix.numpy):
            x = np.tanh(x) * 0.5 + self._small
        a = self._gemm
        for _ in range(self.mix.gemm):
            a = np.tanh(a @ self._gemm)
        s = self._stream
        for _ in range(self.mix.stream):
            np.multiply(s, np.float32(0.999), out=s)
            np.add(s, np.float32(0.001), out=s)
        return sum(acc.values()) + float(x.sum()) + float(a[0, 0]) + float(s[0])

    def sample(self):
        """Run the kernel once and record when and for how long."""
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.paused += t1 - t0

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """A wall time measured over [start, end], rescaled to the reference speed.

        The speed is the mean kernel time of the samples inside the
        interval plus the nearest sample on each side.
        """
        lo = max(bisect.bisect_left(self.stamps, start) - 1, 0)
        hi = min(bisect.bisect_right(self.stamps, end) + 1, len(self.stamps))
        if hi <= lo:
            raise ValueError("no reference sample was taken")
        return seconds * REF_S * (hi - lo) / sum(self.durations[lo:hi])
