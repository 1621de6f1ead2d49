"""Host-speed calibration for the timing metrics.

On a shared host the speed of one vCPU drifts in phases that last from
seconds to minutes, and a whole run can fall inside a slow phase.  The
client therefore runs a fixed set of small interpreter-bound kernels
before each job, outside the job's timed region.  Their total time,
pooled by a sliding mean over neighbouring jobs, estimates the host's
speed while that job ran, and each latency is scaled to the reference
speed:

    scaled = latency * REFERENCE_S / pooled calibration

The kernels use only the standard library and none of the package, so no
change to the package moves them.  They mix the kinds of work the package
does: dict and tuple churn with Fraction arithmetic, frozenset algebra,
int arithmetic, list and str allocation, and recursion over small objects.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Total time of the kernels, in seconds, on the host the baseline
# in README.md was measured on (2-vCPU shared VM, Python 3.11.7), taken as
# about the median over a minute.  Scaled times read as seconds there.
REFERENCE_S = 0.0090
WINDOW = 16  # calibrations on each side pooled into one job's estimate


def _dicts():
    acc, total = {}, Fraction(0)
    for i in range(2600):
        key = (i & 63, i >> 6 & 7)
        acc[key] = acc.get(key, 0) + (i * 2654435761 & 0xFFFF)
        if i % 32 == 0:
            total += Fraction(i, 7)
    return len(acc), total


def _sets():
    sets = [frozenset(range(i % 7, i % 7 + 5)) for i in range(64)]
    hits = 0
    for _ in range(8):
        for a in sets:
            for b in sets[:8]:
                if (a & b) == (b - a):
                    hits += 1
    return hits


def _ints():
    x = 1
    for i in range(11000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


def _lists():
    for _ in range(20):
        pairs = [(i, str(i)) for i in range(300)]
        table = dict(pairs)
        pairs.sort(key=lambda t: t[1])
    return len(table)


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def _build(depth: int, i: int):
    if depth == 0:
        return i & 1
    return _Node("+*"[i & 1], _build(depth - 1, i * 3 + 1), _build(depth - 1, i * 5 + 2))


def _evaluate(t):
    if isinstance(t, int):
        return t
    x, y = _evaluate(t.a), _evaluate(t.b)
    return (x + y) % 3 if t.op == "+" else x * y % 3


def _trees():
    return sum(_evaluate(_build(9, r)) for r in range(3))


KERNELS = (_dicts, _sets, _ints, _lists, _trees)


def sample() -> float:
    """One calibration: the total time of the kernels, in seconds."""
    gc.collect()
    t0 = time.perf_counter()
    for kernel in KERNELS:
        kernel()
    return time.perf_counter() - t0


def pooled(samples: list[float]) -> list[float]:
    """Each sample replaced by the mean of it and its WINDOW neighbours each side.

    A mean, not a median: when the host's slowdown comes in bursts shorter
    than a job, a job pays the average, and most short calibrations miss
    the bursts altogether.
    """
    return [statistics.fmean(samples[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(samples))]


def scale(seconds: float, calibration: float) -> float:
    """A time taken while one calibration read `calibration`, at reference speed."""
    return seconds * REFERENCE_S / calibration
