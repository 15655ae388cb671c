"""Host-speed references: the yardstick every timing is normalised by.

On a shared virtual machine each vCPU flips, independently and several
times a second, between full speed and about 0.58x while other tenants
contend for its physical core.  Over ten minutes of sampling, full-speed
spells lasted 60 ms at the median and slow ones 230 ms (up to 5 s), and
the full-speed share of a 10-second window ranged from 4% to 45%.  Raw
medians of 10-second runs then spread by 15-37% from run to run, which
no regression bound can absorb.  So a :class:`Meter` takes a short
reference measurement — a fixed kernel that uses nothing from
``repro`` — at operation boundaries, at least :data:`EVERY_S` apart, and
:meth:`Meter.normalise` integrates host speed over any interval from
that timeline.  A normalised time reads as seconds at nominal host
speed: :data:`NOMINAL_S` is the kernel's time on this host outside slow
spells.

Normalisation is exact only for work that slows like the kernel, and
kinds of work slow by different factors in a slow spell: measured here,
SHA-256 1.08x, a bitwise pass over 64 KiB 1.38x, file create, rename
and unlink 1.56x, interpreter loops 1.61x, pickle and JSON round trips
1.67x, small-array NumPy calls 1.82x.  When the kernel slows more or
less than the workload, a run's result moves with its share of slow
time.  The kernel is therefore a pickle and JSON round trip of a small
mixed object, which slows like the workloads here — interpreter work,
object handling, small NumPy calls, file and socket I/O — more closely
than any other kernel tried: over ten runs of each workload it kept the
spread of latency medians to 1-6%, against 4-8% for a kernel of small
NumPy calls and bitwise passes.
"""

from __future__ import annotations

import bisect
import json
import os
import pickle
import statistics
import time

import numpy as np

#: The reference kernel's time on a 2-vCPU Xeon (Sapphire Rapids) VM
#: outside slow spells.
NOMINAL_S = 0.375e-3
#: Shortest gap between two references taken at operation boundaries.
EVERY_S = 0.05

_OBJECT = {"ints": list(range(200)), "array": np.arange(64, dtype=np.float64)}


def _kernel() -> None:
    for _ in range(10):
        pickle.loads(pickle.dumps(_OBJECT))
        json.dumps(_OBJECT["ints"])


def kernel_s() -> float:
    """Seconds the reference kernel takes right now on this thread's CPU.

    The faster of two back-to-back runs, which almost always fall in the
    same spell: an interrupt can stretch either one.
    """
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


class Meter:
    """A timeline of references and the normalisation it implies.

    Args:
        cpus: measure each reference on each of these CPUs and average
            their speeds — for work that runs on those CPUs rather than
            on the caller's.  ``None`` measures on the CPU the caller
            runs on, like the single-process work around it.
    """

    def __init__(self, cpus: frozenset[int] | None = None) -> None:
        self.cpus = cpus
        #: (start, end, kernel seconds) per reference, in time order; over
        #: several CPUs, the kernel time their mean speed implies.
        self.samples: list[tuple[float, float, float]] = []
        _kernel()  # first-call costs stay out of the first reference

    def reference(self) -> None:
        """Take one reference now."""
        start = time.perf_counter()
        if self.cpus is None:
            value = kernel_s()
        else:
            allowed = os.sched_getaffinity(0)
            speeds = []
            try:
                for cpu in sorted(self.cpus):
                    os.sched_setaffinity(0, {cpu})
                    speeds.append(1.0 / kernel_s())
            finally:
                os.sched_setaffinity(0, allowed)
            value = 1.0 / statistics.fmean(speeds)
        self.samples.append((start, time.perf_counter(), value))

    def tick(self) -> None:
        """Take a reference if the last one is at least EVERY_S old."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.reference()

    def normalise(self, t0: float, t1: float) -> float:
        """Nominal-speed seconds of the interval [t0, t1], references excluded.

        Between two references the host runs at ``NOMINAL_S`` over their
        mean kernel time; before the first and after the last, at that
        reference's speed.
        """
        samples = self.samples
        if not samples:
            return t1 - t0
        total = 0.0
        first = max(bisect.bisect_left(samples, (t0,)) - 1, 0)
        for i in range(first, len(samples) + 1):
            lo = samples[i - 1][1] if i > 0 else float("-inf")
            hi = samples[i][0] if i < len(samples) else float("inf")
            if lo >= t1:
                break
            overlap = min(hi, t1) - max(lo, t0)
            if overlap <= 0:
                continue
            around = [samples[j][2] for j in (i - 1, i) if 0 <= j < len(samples)]
            total += overlap * NOMINAL_S / statistics.fmean(around)
        return total

    def speed(self) -> float:
        """Median host speed over the timeline, as a fraction of nominal."""
        return statistics.median(NOMINAL_S / s[2] for s in self.samples) if self.samples else 1.0
