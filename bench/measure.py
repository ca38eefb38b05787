"""Summary statistics used by the benchmark: medians, interpolated
percentiles, the tail-percentile rule, the failure fraction, and the
speed calibration that scales every reported time."""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from time import perf_counter
from typing import Sequence

# Percentiles the tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile of ``values`` (0 <= pct <= 100),
    the same rule as ``statistics.quantiles(method="inclusive")``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ``MIN_BEYOND`` of
    ``n`` samples beyond it."""
    fitting = [p for p in LADDER if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9]
    if not fitting:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return fitting[-1]


def failed_frac(outcomes: Sequence[bool]) -> float:
    """Share of instances that are not ok among those attempted."""
    if not outcomes:
        raise ValueError("no instances attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


# ---------------------------------------------------------------------------
# speed calibration
#
# The host's CPUs are shared, and its speed has been seen to change by up to
# 2x for tens of seconds at a time. Every time the benchmark reports is
# therefore scaled to a reference speed: a fixed piece of pure-Python work
# that uses nothing from the package runs at least every CAL_EVERY_S and
# between passes, and each stretch of measured time between two
# calibrations is multiplied by REFERENCE_CAL_S over their mean duration.
# Raw times are kept in the run's details.

REFERENCE_CAL_S = 0.020  # calibration time at full speed on a 2.0 GHz vCPU, Python 3.11
CAL_EVERY_S = 0.5


def calibration_work() -> int:
    """Integer and big-int bit arithmetic, hashing into sets and dicts, and
    a small k-token construction with a breadth-first search and an O(n^2)
    bitmask greedy: the kinds of work the package does, written out here so
    that changes to the package do not move it."""
    total = 0
    for i in range(50_000):
        total += i * i
    mask = (1 << 2048) - 1
    for i in range(10_000):
        shifted = mask >> (i & 63)
        total += (shifted & (shifted >> 1)).bit_count()
    for r in range(5):  # small sets, so calibration adds nothing to peak memory
        pairs = frozenset((i, (i * 7919 + r) % 4099) for i in range(2_000))
        total += len({pair: i for i, pair in enumerate(pairs)})
    for rep in range(9):
        total += _token_graph_work(9 + rep % 2)
    return total


def _token_graph_work(n: int) -> int:
    labels = list(combinations(range(n), 3))
    index = {t: i for i, t in enumerate(labels)}
    edges = set()
    for x in range(n):
        y = (x + 1) % n
        for stay in combinations([v for v in range(n) if v not in (x, y)], 2):
            i = index[tuple(sorted(stay + (x,)))]
            j = index[tuple(sorted(stay + (y,)))]
            edges.add((i, j) if i < j else (j, i))
    adj = [0] * len(labels)
    neighbors: list[set[int]] = [set() for _ in labels]
    for u, v in frozenset(edges):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen, queue = {0}, deque([0])
    while queue:
        for w in neighbors[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    rem, chosen = (1 << len(labels)) - 1, 0
    while rem:
        best_v, best_d, scan = -1, 1 << 30, rem
        while scan:
            bit = scan & -scan
            scan ^= bit
            v = bit.bit_length() - 1
            d = (adj[v] & rem).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        chosen |= 1 << best_v
        rem &= ~(adj[best_v] | 1 << best_v)
    return chosen.bit_count() + len(seen)


class SpeedLog:
    """The calibrations of a run, as (start, end) perf_counter pairs."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []
        self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        calibration_work()
        self.points.append((start, perf_counter()))

    def maybe_calibrate(self) -> None:
        if perf_counter() - self.points[-1][1] >= CAL_EVERY_S:
            self.calibrate()

    def raw(self, start: float, end: float) -> float:
        """Seconds in [start, end] outside calibrations."""
        inside = sum(e - s for s, e in self.points if start <= s and e <= end)
        return end - start - inside

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds in [start, end]. Needs a calibration
        ending before ``start`` and one starting after ``end``."""
        before = [p for p in self.points if p[1] <= start][-1]
        inside = [p for p in self.points if start <= p[0] and p[1] <= end]
        after = next(p for p in self.points if p[0] >= end)
        total, cursor, prev = 0.0, start, before
        for point in inside + [after]:
            stop = min(point[0], end)
            mean = ((prev[1] - prev[0]) + (point[1] - point[0])) / 2
            total += (stop - cursor) * REFERENCE_CAL_S / mean
            cursor, prev = point[1], point
        return total
