"""Time in reference seconds: wall time corrected for the machine's speed.

A shared virtual machine runs the same Python code at speeds that differ
by up to a factor of two from one second to the next: another tenant's
load slows the vCPU without descheduling it, so neither wall time nor CPU
time of a fixed piece of work repeats.  `RefClock` measures that speed
while the work runs.  A SIGALRM timer interrupts the work every
`interval` seconds of wall time and runs `reference()`, a fixed slice of
pure-Python work, timing each run.  The work's time in reference seconds
is its wall time, less the time spent in the reference, times the mean of
`REFERENCE_S / sample` over the samples: each stretch of the run counts
at the speed the reference saw in it.  A reference second is therefore
the time the work would take on a machine where `reference()` takes
`REFERENCE_S`, the median on the 2-vCPU Xeon VM the benchmark was set up
on.

The reference mixes the operations the package spends its time in:
calls, small tuples, dict lookups and updates, and Fraction arithmetic.
It never changes with the package, so a faster or slower package shows
as fewer or more reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3  # median time of reference() on the VM the benchmark was set up on


def _mix(i: int, acc: int) -> int:
    return (i * 2654435761 + acc) & 0xFFFF


def reference() -> tuple[int, Fraction]:
    """A fixed slice of interpreter work, about REFERENCE_S long."""
    memo: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1200):
        key = (i & 31, i >> 5)
        memo[key] = memo.get(key, 0) + i
        acc ^= _mix(i, acc)
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i * i + 1)
    return acc, total


class RefClock:
    """Context manager timing the enclosed work in reference seconds.

    Only one RefClock may run at a time, in the main thread: it owns
    SIGALRM and the real-time interval timer while it runs.
    """

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside reference()
        self.wall = 0.0
        self._start = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "RefClock":
        reference()  # warm: the first run in a process pays for cold code
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one interval: sample once after it
            self._tick(signal.SIGALRM, None)
            self.spent = 0.0

    @property
    def work_s(self) -> float:
        """Wall time of the work alone, without the reference runs."""
        return self.wall - self.spent

    @property
    def speed(self) -> float:
        """Mean speed over the work, relative to the reference machine."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    @property
    def ref_s(self) -> float:
        """The work's time in reference seconds."""
        return self.work_s * self.speed
