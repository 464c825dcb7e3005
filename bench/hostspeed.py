"""Host speed probe: the benchmark's timings in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed flips
between two levels about 1.6x apart, every 10 to 500 ms, spends from none
to all of a minute at the slow one, and at times drops to a third of the
fast one for seconds (measured on a 2-CPU VM with a fixed pure-Python
loop).  CPU time slows with it, so it is the cores that
slow down, not the scheduler that steals them, and raw job times measure
the neighbours as much as the program.

``kernel_s()`` times a fixed piece of pure-Python work of the kinds
firebreak does (integer loops, tuple-keyed dict building, Fraction sums)
that calls nothing of firebreak, so a change to the program cannot move
it.  run.py times the kernel before every job and multiplies the times
of a round of jobs by ``factor()``, REF_KERNEL_S over the round's mean
kernel time: seconds at the reference host's fast speed.  A program that
gets twice as fast reports half the time whatever the host does; a host
that spends more of a round slow slows jobs and kernel alike and cancels.
Means, not medians, because a mean over the flips is proportional to the
share of time spent slow and a median jumps between the two levels.  The
raw times and the factors are printed next to the result.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on the reference host (a 2-CPU VM, Python 3.11) at
# its fast speed.  A fixed constant: it sets the unit only.
REF_KERNEL_S = 0.0018


def _kernel() -> None:
    total = 0
    for i in range(12_000):
        total += i * i
    seen: dict[tuple, int] = {}
    frontier: list[tuple] = [()]
    for _ in range(8):
        frontier = [v + (c,) for v in frontier for c in (0, 1)]
        for v in frontier:
            seen[v] = len(seen)
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(1, i % 97 + 1)


def kernel_s() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Reference-host seconds per measured second over the time the
    kernel ``samples`` were taken across."""
    return REF_KERNEL_S / statistics.fmean(samples)
