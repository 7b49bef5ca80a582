"""Times scaled to a reference speed of the host.

The host is shared, and its speed drifts by up to a third within a minute
as other load comes and goes; whole 25-s runs moved together by that much.
A fixed piece of pure-Python work, timed right before and right after each
measured call, tracks the drift.  Once the run is over, `Clock.scaled`
multiplies a call's wall time by REFERENCE_S over the mean time of the
reference work within WINDOW_S of the call: the result is the time the
call takes with the host at the speed at which the reference work takes
REFERENCE_S.  One timing of the reference work is as noisy as the host,
so the window averages it over the neighbouring calls; without that, the
scaling made calls that take over a second noisier than their wall times.
The reference work does not touch nilmat, so no change to nilmat moves it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# about the median time of one reference_work() on 2 CPUs of a shared host, Python 3.11.7
REFERENCE_S = 0.003
WINDOW_S = 1.0


def reference_work():
    """The kinds of arithmetic nilmat does: products of 8x8 integer matrices
    mod 101 held in lists, and Fraction sums."""
    a = [[(7 * i + 3 * j + 1) % 101 for j in range(8)] for i in range(8)]
    cols = list(zip(*a))
    m = a
    for _ in range(14):
        m = [[sum(x * y for x, y in zip(row, col)) % 101 for col in cols] for row in m]
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(k, k + 1)
    return m[0][0] + s.numerator % 101


class Clock:
    def __init__(self):
        self.at = []     # the middle of each timing of the reference work
        self.took = []   # its duration

    def _mark(self):
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def time(self, fn):
        """(fn's result or None, its exception or None, (start, end))."""
        self._mark()
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as e:  # the caller counts a raising call as failed
            result, error = None, e
        t1 = perf_counter()
        self._mark()
        return result, error, (t0, t1)

    def scaled(self, span):
        """The length of a (start, end) span at the reference speed."""
        t0, t1 = span
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        return (t1 - t0) * REFERENCE_S / fmean(self.took[lo:hi])
