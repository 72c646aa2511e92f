"""A speed probe that samples how fast this process's core runs right now.

On a few cores of a shared host the same Python code runs up to twice as
slow at one moment as at the next, and the share of slow moments drifts
from minute to minute.  CPU time tracks wall time through this, so the
process is not descheduled: its core runs slower (neighbours on the host
contend for it).  Two runs of the same code therefore differ by far more
than a change to the program would.

``SpeedProbe`` samples that speed while the program runs: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler times one call of a fixed
pure-Python kernel (``kernel``) that does the same kind of work as the
program (small frozensets, dict and set updates).  The handler's own time is
kept in ``spent`` so that op timings can leave it out.  An op's time divided
by the mean kernel time sampled while it ran (``around``) is the op's cost
in *ref* units: multiples of the kernel's time on the same core at the same
moment.  Slow spells stretch both alike, so the ratio holds still where the
seconds do not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List

#: wall time between two samples; each sample costs about 0.1-0.3 ms, so the
#: probe takes about 4% of the measured interval (and is subtracted)
INTERVAL_S = 0.005
KERNEL_LOOPS = 300
#: an op sampled fewer times than this is measured against the samples
#: nearest to it, so that no op's ref cost rests on one or two samples
LEAST_SAMPLES = 60
WARMUP_CALLS = 50


def kernel(loops: int = KERNEL_LOOPS) -> int:
    """The fixed reference work, timed by each sample."""
    table: dict = {}
    seen: set = set()
    for i in range(loops):
        key = frozenset((i, i + 1, i % 7))
        table[key] = table.get(key, 0) + len(key)
        seen |= key
    return len(table) + len(seen)


class SpeedProbe:
    """Samples the kernel's time every ``INTERVAL_S`` while active.

    Use as a context manager.  ``samples`` holds every sample in seconds, in
    order; ``spent`` is the total wall time the handler took."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        # a collection falling due inside the kernel would scan the program's
        # heap and be charged to the kernel; it is left to the program
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP_CALLS):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, first: int, end: int) -> float:
        """The kernel's mean time over samples ``first:end``, widened to the
        nearest ``LEAST_SAMPLES`` if there are fewer.  The mean, because the
        probe samples uniformly in wall time, so it weighs slow spells by how
        long they last, as they weigh on the program."""
        while end - first < LEAST_SAMPLES and (first > 0 or end < len(self.samples)):
            first = max(first - 1, 0)
            if end - first < LEAST_SAMPLES:
                end = min(end + 1, len(self.samples))
        return statistics.fmean(self.samples[first:end])
