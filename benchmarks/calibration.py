"""Scale measured times to a fixed interpreter speed.

On a shared 2-core machine the speed of pure-Python code drifts by up to
1.7x within a minute, and by 20 % from one tenth of a second to the next,
as other tenants come and go.  Raw seconds from two runs of the same code
then disagree by more than the changes the benchmark must detect.

Times inside a worker are read from `clock`, the CPU time of the process,
so time in which the process was not running at all is left out.  That
is sound because the library runs in this one process: the worker
refuses a run in which the library started child processes.  What
remains is the slowdown from other tenants on the same cores and caches.

A SpeedSampler therefore times one run of a fixed loop every EVERY_S
seconds, from a SIGALRM handler, so the samples also fall inside long
library calls without a second thread.  `factor(start, end)` turns the
seconds measured over [start, end] into seconds at NOMINAL_SPIN_S per
loop, from the samples inside that interval and the nearest one on
either side.  The time the samples take is counted in `spent_s`, so
callers can leave it out.

In a probe, batches of word -> heap -> word conversions and
grammar_count(7, "T") were timed for 120 s.  The spread of the batch
times (IQR over median) was 0.11 in wall time, 0.11 in CPU time, 0.056
in wall time scaled by the loop's wall time and 0.036 in CPU time scaled
by its CPU time.  The slowest batch over the fastest was 2.7 scaled in
wall time and 1.2 scaled in CPU time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from time import process_time as clock

# typical time of spin() on a quiet 2-core x86-64 virtual machine, Python 3.11.7
NOMINAL_SPIN_S = 0.0002
EVERY_S = 0.02  # one spin() per sample: about 1 % of the time
_DIMERS = ((0, 1), (1, 2), (-1, 2), (2, 3), (0, 3), (1, 4), (3, 4), (-2, 3))


def spin() -> int:
    """A fixed subset search over eight (column, level) pairs.

    It does the library's kind of work (tuples, sets, generators,
    combinations) without calling the library, so no change to the
    library changes it.  Of the loops tried it followed the library's
    slowdowns best.  Over 180 s of repeated batches of word -> heap ->
    word conversions and of grammar_count(8, "T"), the spread of the batch
    times (IQR over median) was 0.33-0.38 raw and 0.07-0.09 scaled by
    this loop; a loop of integer arithmetic and list indexing left
    0.13-0.15.
    """
    acc = 0
    for size in range(4):
        for chosen in combinations(_DIMERS, size):
            top = set(chosen)
            acc += sum(
                1
                for p in top
                for q in _DIMERS
                if q not in top and abs(q[0] - p[0]) <= 1 and q[1] > p[1]
            )
    return acc


class SpeedSampler:
    """Samples the interpreter's speed on a timer while it is started."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each sample
        self.spin_s: list[float] = []  # spin() time of each sample
        self.spent_s = 0.0

    def _sample(self, *_signal) -> None:
        # spin() frees all it allocates; with collection off it cannot
        # set off a collection that the op would then be charged for
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        spin()
        end = clock()
        if collecting:
            gc.enable()
        self.at.append((start + end) / 2)
        self.spin_s.append(end - start)
        self.spent_s += end - start

    def __enter__(self) -> SpeedSampler:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """Multiply time measured over [start, end] by this for nominal seconds."""
        lo = max(bisect_left(self.at, start) - 1, 0)
        hi = bisect_right(self.at, end) + 1
        return NOMINAL_SPIN_S / statistics.fmean(self.spin_s[lo:hi])
