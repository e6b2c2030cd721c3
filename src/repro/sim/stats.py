"""Small statistics helpers used across the simulator.

A :class:`Tally` accumulates scalar observations with Welford's online
algorithm (numerically stable mean/variance without storing samples).
Experiment drivers use it for per-operation latency and counts, and for
per-policy bookkeeping such as the extents-per-file numbers behind
Table 4.  Named counters live in :class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math
from bisect import bisect_left


class Tally:
    """Online mean / variance / min / max of a stream of observations."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        count = self.count + 1
        self.count = count
        delta = value - self._mean
        mean = self._mean + delta / count
        self._mean = mean
        self._m2 += delta * (value - mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 before any observation)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._mean * self.count

    def merge(self, other: "Tally") -> None:
        """Fold another tally's observations into this one (Chan's method)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tally n={self.count} mean={self.mean:.3f}>"


class FixedHistogram:
    """Histogram over a fixed, ascending list of bucket edges.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (the first bucket is
    ``v <= edges[0]``); one extra overflow bucket counts everything above
    ``edges[-1]``.  A :class:`Tally` rides along for count / sum / mean /
    min / max, so the latency histograms the observability layer exports
    need no second accumulator.  Unlike :func:`histogram`, the edges are
    declared up front, so two runs (or two worker processes) produce
    directly comparable — and mergeable — buckets.
    """

    __slots__ = ("edges", "counts", "tally")

    def __init__(self, edges: list[float]) -> None:
        if not edges:
            raise ValueError("FixedHistogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must be strictly ascending: {edges}")
        self.edges = list(edges)
        self.counts = [0] * (len(edges) + 1)
        self.tally = Tally()

    def add(self, value: float) -> None:
        """Record one observation in its bucket."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.tally.add(value)

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self.tally.count

    def merge(self, other: "FixedHistogram") -> None:
        """Fold another histogram with identical edges into this one."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.tally.merge(other.tally)

    def as_dict(self) -> dict:
        """A picklable/JSON-safe snapshot (edges, counts, summary stats)."""
        tally = self.tally
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": tally.count,
            "sum": tally.total,
            "mean": tally.mean,
            "min": tally.minimum if tally.count else None,
            "max": tally.maximum if tally.count else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FixedHistogram n={self.count} edges={len(self.edges)}>"


def histogram(values: list[float], n_bins: int) -> list[tuple[float, float, int]]:
    """Equal-width histogram: list of ``(low, high, count)`` bins.

    Used by the report layer for latency distribution summaries.  Returns
    an empty list for empty input; a single degenerate bin when all values
    are equal.
    """
    if not values:
        return []
    low, high = min(values), max(values)
    if low == high:
        return [(low, high, len(values))]
    width = (high - low) / n_bins
    bins = [0] * n_bins
    for value in values:
        index = min(int((value - low) / width), n_bins - 1)
        bins[index] += 1
    return [
        (low + i * width, low + (i + 1) * width, count)
        for i, count in enumerate(bins)
    ]
