"""The machine's speed during a run, from a fixed probe run between
operations, and the scaling of measured times to a reference speed.

On a shared host the same pass of the same program takes from 0.6 to 1.2
times its usual time, in phases that last from a fraction of a second to
minutes, and a pure-Python loop that touches no memory slows down with it.
A 25-s run cannot average such phases away.  The benchmark therefore runs
`probe` after every operation and scales each operation's time by
REFERENCE_PROBE_S over the median probe time within WINDOW_S of it: a
time "at the reference speed" is what the operation would have taken had
the probe taken REFERENCE_PROBE_S.  The probe is the benchmark's own code
and never calls the program, so a change to the program moves the scaled
times in the same proportion as the raw ones.  Raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.002
WINDOW_S = 0.5

_ROWS = [[(i * 31 + j * 17) % 11 - 5 for j in range(64)] for i in range(40)]


def _row_updates() -> int:
    rows = [r[:] for r in _ROWS]
    top = rows[0]
    for r in rows[1:]:
        f = r[0]
        for j in range(len(r)):
            r[j] = (3 * r[j] - f * top[j]) % 1000003
    return rows[-1][-1]


def _int_loop() -> int:
    s = 0
    for i in range(4500):
        s += i * i % 7
    return s


_MATRIX = [[(i * 7 + j * 3) % 5 - 2 + (3 if i == j else 0) for j in range(17)] for i in range(16)]


def _fraction_free_elimination() -> int:
    a = [r[:] for r in _MATRIX]
    prev = 1
    for c in range(len(a)):
        piv = a[c][c]
        if not piv:
            continue
        for r in a[c + 1:]:
            f = r[c]
            for j in range(c + 1, len(r)):
                r[j] = (piv * r[j] - f * a[c][j]) // prev
            r[c] = 0
        prev = piv
    return a[-1][-1]


def _fractions() -> Fraction:
    acc = Fraction(1)
    for k in range(1, 40):
        acc = acc * Fraction(k + 7, k + 3) + Fraction(1, k * k + 1)
    return acc


_ARCS = [((i * 7 + 1) % 1200, (i * 13 + 5) % 1200) for i in range(1200)]


def _dict_set_search() -> int:
    seen = {0}
    frontier = [0]
    counts: dict[int, int] = {}
    while frontier:
        nxt = []
        for u in frontier:
            for v in _ARCS[u]:
                counts[v & 255] = counts.get(v & 255, 0) + 1
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) + len(counts)


_BIG_A = 3**3000
_BIG_B = 7**2500


def _big_ints() -> int:
    x = 0
    for _ in range(3):
        x ^= (_BIG_A * _BIG_B) % (_BIG_B + 12345)
    return x


_KERNELS = (
    _row_updates,
    _int_loop,
    _fraction_free_elimination,
    _fractions,
    _dict_set_search,
    _big_ints,
)


def probe() -> None:
    """A fixed mix of interpreter work like the program's, 0.2 to 0.5 ms
    each on a 2.1 GHz Xeon: list row updates, a bytecode loop, fraction-free
    elimination, small Fractions, dict and set traffic, big-int products."""
    for kernel in _KERNELS:
        kernel()


class SpeedLog:
    """Start times and durations of the probes of one run, in seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """Time one probe.  The collector is off meanwhile, so that the
        program's heap, which a collection would walk, adds no time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe time from WINDOW_S before
        `start` to WINDOW_S after `end`; with no probe there, the next probe,
        or the last one."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            k = min(lo, len(self.starts) - 1)
            return REFERENCE_PROBE_S / self.durations[k]
        return REFERENCE_PROBE_S / statistics.median(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
