"""Unit tests for the metrics registry and its fixed-bucket histograms."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_EDGES,
    SEEK_DISTANCE_EDGES,
    MetricsRegistry,
)
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.fault import FaultInjector, parse_fault_spec
from repro.sim.engine import Simulator
from repro.sim.stats import FixedHistogram


class TestFixedHistogramBuckets:
    """Bucket-edge semantics: bucket i counts edges[i-1] < v <= edges[i]."""

    def test_value_exactly_on_edge_lands_in_le_bucket(self):
        hist = FixedHistogram([1.0, 2.0, 4.0])
        for value in (1.0, 2.0, 4.0):
            hist.add(value)
        assert hist.counts == [1, 1, 1, 0]

    def test_value_just_above_edge_lands_in_next_bucket(self):
        hist = FixedHistogram([1.0, 2.0, 4.0])
        hist.add(1.0000001)
        assert hist.counts == [0, 1, 0, 0]

    def test_below_first_edge_lands_in_first_bucket(self):
        hist = FixedHistogram([1.0, 2.0])
        hist.add(0.0)
        hist.add(-3.0)
        assert hist.counts == [2, 0, 0]

    def test_overflow_bucket_catches_everything_above_last_edge(self):
        hist = FixedHistogram([1.0, 2.0])
        hist.add(2.5)
        hist.add(1e9)
        assert hist.counts == [0, 0, 2]

    def test_tally_rides_along(self):
        hist = FixedHistogram([10.0])
        hist.add(4.0)
        hist.add(6.0)
        assert hist.count == 2
        snap = hist.as_dict()
        assert snap["mean"] == pytest.approx(5.0)
        assert (snap["min"], snap["max"]) == (4.0, 6.0)

    def test_empty_histogram_snapshot_has_null_extrema(self):
        snap = FixedHistogram([1.0]).as_dict()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_edges_must_be_ascending_and_nonempty(self):
        with pytest.raises(ValueError):
            FixedHistogram([])
        with pytest.raises(ValueError):
            FixedHistogram([2.0, 1.0])

    def test_default_edge_tables_are_strictly_ascending(self):
        for edges in (DEFAULT_LATENCY_EDGES, SEEK_DISTANCE_EDGES):
            assert edges == sorted(edges)
            assert len(set(edges)) == len(edges)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.incr("disk.retries")
        metrics.incr("disk.retries", 3)
        assert metrics.counters["disk.retries"] == 4

    def test_totals_accumulate_floats(self):
        metrics = MetricsRegistry()
        metrics.add("disk.busy_ms", 1.5)
        metrics.add("disk.busy_ms", 2.25)
        assert metrics.totals["disk.busy_ms"] == pytest.approx(3.75)

    def test_gauge_keeps_latest_and_gauge_max_keeps_peak(self):
        metrics = MetricsRegistry()
        metrics.gauge("queue.depth", 5.0)
        metrics.gauge("queue.depth", 2.0)
        assert metrics.gauges["queue.depth"] == 2.0
        metrics.gauge_max("queue.peak", 5.0)
        metrics.gauge_max("queue.peak", 2.0)
        assert metrics.gauges["queue.peak"] == 5.0

    def test_observe_creates_histogram_with_requested_edges(self):
        metrics = MetricsRegistry()
        metrics.observe("disk.seek_distance_cyl", 3.0, SEEK_DISTANCE_EDGES)
        metrics.observe("disk.service_ms", 12.0)
        assert metrics.histograms["disk.seek_distance_cyl"].edges == list(
            SEEK_DISTANCE_EDGES
        )
        assert metrics.histograms["disk.service_ms"].edges == list(
            DEFAULT_LATENCY_EDGES
        )

    def test_snapshot_is_sorted_and_json_safe(self):
        import json

        metrics = MetricsRegistry()
        metrics.incr("b")
        metrics.incr("a")
        metrics.observe("lat", 1.0)
        snap = metrics.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise

    def test_injector_counts_fault_transitions(self):
        sim = Simulator()
        metrics = sim.metrics = MetricsRegistry()
        array = StripedArray(sim, TINY_DISK, 4, 8192, 4096)
        spec = parse_fault_spec(
            "fail:drive=0,at=0,repair=1;fail:drive=1,at=2;"
            "slow:drive=2,at=0,factor=2,for=5"
        )
        FaultInjector(sim, array, spec)
        sim.run()
        assert metrics.counters == {
            "fault.disk-failure": 2,
            "fault.drive-restored": 1,
            "fault.slowdown-start": 1,
            "fault.slowdown-end": 1,
        }
