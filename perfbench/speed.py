"""Clock and machine-speed calibration for the untraced runs.

The machine this benchmark was built on is a virtual machine whose
cores are shared with other tenants. Two things move its wall-clock
times. The hypervisor takes the core away for tens of milliseconds at a
time (steal time): a fixed 50 ms kernel then read up to 175 ms of wall
time but still 50-80 ms of CPU time. And the core itself runs about 1.6
times faster for a few seconds at a time, in CPU time too.

So every timed sample is read from ``cpu_clock``, the CPU time of the
main thread, which leaves stolen time out. The main thread runs all of
tapeformer's Python and its share of every BLAS call; numpy's BLAS
worker is left out because it spins between calls, which doubled the
process's CPU time at the default config. For this single-caller loop,
which reads no files after set-up, the main thread's CPU time equals
wall time on an unshared machine.

For the core speed, a fixed calibration kernel (tiny numpy calls, a
small matmul, dict and sort work: the mix of tapeformer's hot paths) is
timed right before and right after each timed sample, and the sample is
scaled by the mean of those two probe times over ``REFERENCE_S``, so it
reads in reference-machine units. The kernel is the benchmark's own
code, so a change to tapeformer moves the metrics and a change in
machine speed mostly does not. The raw values stay in the run metadata.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's typical time on the reference machine (2-core Xeon
# sandbox, Python 3.11.7, numpy 2.4.6 with OpenBLAS)
REFERENCE_S = 0.050
_ITERATIONS = 2500


def cpu_clock() -> float:
    """CPU seconds used so far by the calling (main) thread."""
    return time.thread_time()


class Speedometer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []
        rng = np.random.default_rng(0)
        self._a = rng.random((32, 64))
        self._w = rng.random((64, 64))
        self._ids = np.arange(64)

    def probe(self) -> None:
        """Time the calibration kernel once (about 50 ms)."""
        if not self.enabled:
            return
        a, w, ids = self._a, self._w, self._ids
        t0 = cpu_clock()
        for i in range(_ITERATIONS):
            a @ w
            np.searchsorted(ids, i % 64)
            np.asarray([1.0, float(i), 3.0])
            d = {j: j for j in range(30)}
            sorted(d.values(), reverse=True)
        self.times.append(cpu_clock() - t0)

    def factor(self, after: int | None = None) -> float:
        """How much slower than the reference the machine was.

        With ``after``, around one timed sample: the mean of the probe
        taken just before the sample and probe ``after``, taken just
        after it. Without, over the whole run: the median probe.
        """
        if not self.times:
            return 1.0
        if after is None:
            return statistics.median(self.times) / REFERENCE_S
        return statistics.fmean(self.times[max(0, after - 1):after + 1]) / REFERENCE_S
