"""The machine's pace, sampled while a run measures, to scale its times.

The speed of a shared virtual machine changes by up to 2x within seconds
and between runs.  A fixed pure-Python reference chunk (dict and integer
work like the library's, but no library code) slows down with it: over
150 s of interleaved samples, the raw time of a zeval call had a quartile
spread of 0.51, and its ratio to the chunk timed around it 0.07.  Calls
that touch more memory follow the chunk less closely (one orbit call still
swings by about 20%).  So while passes run, a ``SIGALRM`` handler
times one chunk every ``INTERVAL`` seconds, in the main thread between two
bytecodes of whatever runs (no thread, no process).  An interval of the run
is then scaled by ``NOMINAL_S`` over the median chunk time near it, which
reads every time as if the machine had kept the nominal pace.  Since the
chunk runs no library code, a change in the library moves the scaled times
as much as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.25  # seconds between two samples
WINDOW = 1.0     # samples this close to an interval set its pace
CHUNK_LOOPS = 6000
# A chunk's time at the nominal pace: about the median on a 2-vCPU Xeon VM
# at 2.0 GHz (Python 3.11).  Any constant would do; this one keeps scaled
# times close to the wall times seen there.
NOMINAL_S = 0.0016


def reference_chunk() -> int:
    acc: dict[int, int] = {}
    for i in range(CHUNK_LOOPS):
        k = (i * 7919) % 613
        acc[k] = acc.get(k, 0) + i * k
    return len(acc)


def chunk_seconds() -> float:
    t0 = perf_counter()
    reference_chunk()
    return perf_counter() - t0


class Pace:
    """Collects (start, seconds) samples of the reference chunk while its
    ``with`` block runs; ``paused``, ``scale`` and ``nominal`` read them
    afterwards."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.starts.append(perf_counter())
        self.seconds.append(chunk_seconds())

    def __enter__(self) -> "Pace":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()  # so that even a run shorter than INTERVAL has two

    def paused(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between ``t0`` and ``t1``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.seconds[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over the median chunk time of the samples that started
        within ``WINDOW`` of the interval ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        near = self.seconds[lo:hi] or self.seconds
        return NOMINAL_S / statistics.median(near)

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1``, less sampling, at nominal pace."""
        return (t1 - t0 - self.paused(t0, t1)) * self.scale(t0, t1)
