"""Small statistics helpers used across the simulator.

A :class:`Tally` accumulates scalar observations: count, running mean,
minimum and maximum, without storing samples.  The workload driver keeps
one per operation type for the latency means in every performance
result, and :class:`FixedHistogram` keeps one for its summary
statistics.  Named counters live in
:class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math
from bisect import bisect_left


class Tally:
    """Online mean / min / max of a stream of observations."""

    __slots__ = ("count", "_mean", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        count = self.count + 1
        self.count = count
        self._mean += (value - self._mean) / count
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 before any observation)."""
        return self._mean if self.count else 0.0

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._mean * self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tally n={self.count} mean={self.mean:.3f}>"


class FixedHistogram:
    """Histogram over a fixed, ascending list of bucket edges.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (the first bucket is
    ``v <= edges[0]``); one extra overflow bucket counts everything above
    ``edges[-1]``.  A :class:`Tally` rides along for count / sum / mean /
    min / max, so the latency histograms the observability layer exports
    need no second accumulator.  The edges are declared up front, so two
    runs (or two worker processes) produce directly comparable buckets.
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

