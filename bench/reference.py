"""A fixed reference loop that measures how fast the machine runs right now.

The host's speed drifts: identical work takes up to 1.7 times longer for
seconds or minutes at a time, so a wall time from one run differs from
the next whatever the run length.  The benchmark therefore also states
job times in reference time: a duration divided by the duration of this
loop, measured in the same process just before and after it.  On a
machine that does not drift the two differ only by a constant.

The loop is the benchmark's own exact Gaussian elimination over
`fractions.Fraction`, the arithmetic cliffilt spends most of its time in;
it never calls cliffilt, so a change to the program cannot change it.
It runs with the garbage collector off, so the program's heap cannot
slow it down either.  One reference second is REF_LOOPS_PER_S loops.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_LOOPS_PER_S = 250
REPEATS = 5


def _eliminate() -> int:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(12)]
            for i in range(10)]
    rank = 0
    for c in range(12):
        pivot = next((i for i in range(rank, 10) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(10):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def loop_seconds() -> float:
    """Median wall time of one reference loop, over REPEATS loops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _eliminate()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
