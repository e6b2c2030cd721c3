"""Tests for the experiment dossier renderer."""

from repro.core.experiments import PerformanceResult, PhaseResult
from repro.fault.injector import FaultSummary
from repro.report.summary import (
    render_fault_summary,
    render_metrics_snapshot,
    render_performance_summary,
)


def make_result(policy="extent[3 ranges, first-fit]", workload="TP",
                app=0.17, seq=0.94):
    return PerformanceResult(
        policy_label=policy,
        workload=workload,
        application=PhaseResult(app, False, 90_000.0, 1.5e8),
        sequential=PhaseResult(seq, True, 60_000.0, 5.9e8),
        final_utilization=0.93,
        operation_counts={"read": 900, "write": 450, "extend": 70},
        operation_latency_ms={"read": 31.2, "write": 28.9, "extend": 12.0},
        disk_full_events=0,
        governor_conversions=12,
    )


class TestPerformanceSummary:
    def test_contains_all_sections(self):
        text = render_performance_summary(make_result())
        assert "extent[3 ranges, first-fit] / TP" in text
        assert "application" in text and "sequential" in text
        assert "17.0%" in text and "94.0%" in text
        assert "read" in text and "31.2" in text
        assert "final utilization : 93.0%" in text
        assert "governor converts : 12" in text

    def test_missing_latency_renders_zero(self):
        result = make_result()
        result.operation_counts["truncate"] = 5
        text = render_performance_summary(result)
        assert "truncate" in text


def make_fault_summary(**overrides):
    values = dict(
        disk_failures=1,
        transient_errors=2,
        slowdowns=0,
        rebuilds_completed=1,
        healthy_ms=10_000.0,
        degraded_ms=5_000.0,
        healthy_bytes=1.0e8,
        degraded_bytes=2.5e7,
        rebuild_bytes=5.0e7,
    )
    values.update(overrides)
    return FaultSummary(**values)


class TestFaultSummaryRendering:
    def test_healthy_window_renders_percentage(self):
        text = render_fault_summary(make_fault_summary())
        assert "% of healthy" in text
        assert "n/a" not in text

    def test_zero_healthy_time_renders_na(self):
        text = render_fault_summary(
            make_fault_summary(healthy_ms=0.0, healthy_bytes=0.0)
        )
        assert "n/a (no healthy window)" in text

    def test_zero_healthy_bytes_renders_na(self):
        # Time passed while healthy but nothing moved: no baseline.
        text = render_fault_summary(make_fault_summary(healthy_bytes=0.0))
        assert "n/a (no healthy window)" in text


class TestDegradedPercentGuard:
    def test_none_when_never_healthy(self):
        summary = make_fault_summary(healthy_ms=0.0, healthy_bytes=0.0)
        assert summary.degraded_percent_of_healthy is None

    def test_none_when_healthy_window_moved_no_bytes(self):
        summary = make_fault_summary(healthy_bytes=0.0)
        assert summary.degraded_percent_of_healthy is None

    def test_percentage_when_baseline_exists(self):
        summary = make_fault_summary()
        # degraded 2.5e7/5e3 vs healthy 1e8/1e4 -> 50%.
        assert summary.degraded_percent_of_healthy == 50.0


class TestMetricsRendering:
    def metrics(self):
        return {
            "counters": {"disk.requests": 120, "alloc.requests": 40},
            "gauges": {"disk.queue_depth_peak.d0": 7.0},
            "totals": {"disk.busy_ms.d0": 4321.5},
            "histograms": {
                "disk.service_ms": {
                    "edges": [1.0, 10.0],
                    "counts": [5, 90, 25],
                    "count": 120,
                    "sum": 960.0,
                    "mean": 8.0,
                    "min": 0.4,
                    "max": 55.0,
                },
                "empty_dist": {
                    "edges": [1.0],
                    "counts": [0, 0],
                    "count": 0,
                    "sum": 0.0,
                    "mean": 0.0,
                    "min": None,
                    "max": None,
                },
            },
        }

    def test_scalars_and_histograms_tabulated(self):
        text = render_metrics_snapshot(self.metrics())
        assert "disk.requests" in text and "120" in text
        assert "disk.queue_depth_peak.d0" in text and "7" in text
        assert "4321.5" in text
        assert "disk.service_ms" in text and "8.00" in text

    def test_empty_histogram_renders_na(self):
        text = render_metrics_snapshot(self.metrics())
        assert "n/a" in text

    def test_metrics_section_joins_performance_summary(self):
        import dataclasses

        result = dataclasses.replace(make_result(), metrics=self.metrics())
        text = render_performance_summary(result)
        assert "Metrics" in text
        assert "Latency distributions" in text

