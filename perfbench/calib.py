"""A fixed reference loop, timed between operations, that tracks how fast
the machine runs at the moment.

On a shared host the same code can run 10-20 % slower for seconds at a time.
Each operation's wall time is scaled by NOMINAL_S over the median reference
time within WINDOW_S of it, which reads as seconds at the reference speed.
"""

import bisect
import gc
import os
import statistics
import time

NOMINAL_S = 0.004  # a typical reference-loop time on the machine README.md's figures come from
INTERVAL_S = 0.05  # at most this long between reference samples, except inside one operation
WINDOW_S = 0.3  # an operation is scaled by the samples taken up to this long before and after it


def ref_work():
    """Pure-Python work of the two kinds dualdeg does: fraction-free
    elimination on big integers, and a recursive enumeration that builds
    tuples and small dicts."""
    n = 9
    for rep in range(12):
        a = [[(i * 7 + j * 13 + rep) % 17 + 10 ** (i % 5) for j in range(n)] for i in range(n)]
        prev = 1
        for c in range(n - 1):
            for r in range(c + 1, n):
                for j in range(c + 1, n):
                    a[r][j] = (a[c][c] * a[r][j] - a[r][c] * a[c][j]) // prev
            prev = a[c][c] or 1
    rows = []

    def rec(prefix, low, depth):
        if depth == 0:
            rows.append(dict(enumerate(prefix)))
            return
        for v in range(low, 3):
            rec(prefix + (v,), v, depth - 1)

    rec((), 0, 24)
    return len(rows)


class Clock:
    """Reference samples (end time, duration) taken between operations."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        gc.disable()  # a collection of the program's garbage is not the machine's speed
        try:
            t0 = time.perf_counter()
            ref_work()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append((t1, t1 - t0))

    def maybe_sample(self):
        if time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, t0, t1):
        """NOMINAL_S over the median reference time of the samples taken
        within WINDOW_S of the interval [t0, t1]."""
        ends = [t for t, _ in self.samples]
        lo = bisect.bisect_left(ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(ends, t1 + WINDOW_S)
        window = [d for _, d in self.samples[lo:hi]] or [self.samples[-1][1]]
        return NOMINAL_S / statistics.median(window)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    samples and the work they scale run on the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
