"""The metrics registry: counters, gauges, totals, latency histograms.

One :class:`MetricsRegistry` is attached per simulation as
``sim.metrics`` (``None`` disabled, same fast-path discipline as the
tracer).  It *extends* the bookkeeping the simulator already does — the
per-drive request, byte and busy-time counters, the workload driver's
per-operation tallies, the allocator's request counts, the fault
injector's window meters — rather than duplicating it: subsystems record
only what no existing counter captures, each at its own site behind an
``is not None`` check.  The drive queue records queue-wait and service
latency distributions and each request's seek distance and seek time;
the fault injector counts its state flips as ``fault.<kind>``.  The
experiment layer folds both sources into one snapshot dict at the end of
a run (see ``repro.core.experiments.collect_metrics_snapshot``).

The orchestration layer counts in a registry too: each
:class:`~repro.core.runner.ExperimentRunner` and
:class:`~repro.serve.service.ExperimentService` owns one, shared with
the result cache and worker crew it builds, holding the ``core.*`` and
``serve.*`` counters; the service serves its snapshot at ``/v1/stats``.

Everything in a snapshot is a plain int/float/list/dict, so snapshots
pickle across worker processes, JSON-serialize for ``--json`` output,
and merge into cached results without custom reducers.
"""

from __future__ import annotations

from ..sim.stats import FixedHistogram

#: Default latency bucket edges (milliseconds): sub-ms to a minute,
#: roughly 2.5x apart — wide enough for one seek or a queue pile-up.
DEFAULT_LATENCY_EDGES = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 15_000.0, 60_000.0,
]

#: Seek-distance bucket edges (cylinders).
SEEK_DISTANCE_EDGES = [0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]


class MetricsRegistry:
    """Named counters, gauges, float totals, and fixed-bucket histograms.

    Instruments are created on first use so subsystems need no
    registration step; names are dotted paths prefixed with their
    package (``disk.service_ms``, ``fault.disk-failure``,
    ``core.cache_hits``).  An owner whose registry is read from another
    thread registers its counters up front with ``incr(name, 0)``, so
    a snapshot never races a key insertion.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.totals: dict[str, float] = {}
        self.histograms: dict[str, FixedHistogram] = {}

    # -- recording ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, name: str, value: float) -> None:
        """Accumulate ``value`` into float total ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new maximum."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(
        self, name: str, value: float, edges: list[float] | None = None
    ) -> None:
        """Record ``value`` in histogram ``name`` (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = FixedHistogram(
                edges if edges is not None else DEFAULT_LATENCY_EDGES
            )
        hist.add(value)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe, picklable snapshot of every instrument, sorted by
        name so two identical runs serialize identically."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "totals": dict(sorted(self.totals.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }
