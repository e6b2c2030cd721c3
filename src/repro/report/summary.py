"""Experiment dossiers: one readable report per run.

The tables and charts in :mod:`repro.report.tables` / ``figures`` render
single results; this module composes them into the summaries the examples
and CLI print — a performance run with its phase numbers, operation mix,
and per-operation latency, or a multi-policy comparison.
"""

from __future__ import annotations

from ..core.experiments import PerformanceResult
from ..fault.injector import FaultSummary
from .tables import Table


def render_fault_summary(summary: FaultSummary) -> str:
    """Degraded-mode dossier for a fault-injected run.

    Reports foreground throughput in each mode (rebuild traffic is
    excluded from the byte counts) and the paper-style normalization:
    degraded-mode throughput as a percentage of healthy-mode throughput.
    """
    table = Table(
        ["Metric", "Healthy", "Degraded"],
        title="Fault injection: degraded-mode performance",
    )
    table.add_row(
        [
            "Time (s)",
            f"{summary.healthy_ms / 1000:.1f}",
            f"{summary.degraded_ms / 1000:.1f}",
        ]
    )
    table.add_row(
        [
            "Foreground data (MiB)",
            f"{summary.healthy_bytes / 2**20:.1f}",
            f"{summary.degraded_bytes / 2**20:.1f}",
        ]
    )
    table.add_row(
        [
            "Throughput (MiB/s)",
            f"{summary.healthy_throughput * 1000 / 2**20:.2f}",
            f"{summary.degraded_throughput * 1000 / 2**20:.2f}",
        ]
    )
    percent = summary.degraded_percent_of_healthy
    footer = [
        "degraded throughput : "
        + (
            f"{percent:.1f}% of healthy"
            if percent is not None
            else "n/a (no healthy window)"
        ),
        f"disk failures       : {summary.disk_failures}",
        f"rebuilds completed  : {summary.rebuilds_completed}",
        f"rebuild data (MiB)  : {summary.rebuild_bytes / 2**20:.1f}",
        f"transient errors    : {summary.transient_errors}",
        f"slowdown windows    : {summary.slowdowns}",
    ]
    return table.render() + "\n\n" + "\n".join(footer)


def render_metrics_snapshot(metrics: dict) -> str:
    """Dossier section for a collected metrics snapshot.

    Scalars (counters, gauges, float totals) share one table; latency
    histograms get a second with their summary statistics.  Bucket
    contents stay in the JSON/trace outputs — here they would drown the
    dossier.
    """
    scalars = Table(["Metric", "Value"], title="Metrics")
    for name, value in metrics.get("counters", {}).items():
        scalars.add_row([name, value])
    for name, value in metrics.get("gauges", {}).items():
        scalars.add_row([name, f"{value:g}"])
    for name, value in metrics.get("totals", {}).items():
        scalars.add_row([name, f"{value:.1f}"])
    sections = [scalars.render()]
    histograms = metrics.get("histograms", {})
    if histograms:
        table = Table(
            ["Distribution", "Count", "Mean", "Min", "Max"],
            title="Latency distributions",
        )

        def cell(value: float | None) -> str:
            return "n/a" if value is None else f"{value:.2f}"

        for name, hist in histograms.items():
            table.add_row(
                [
                    name,
                    hist.get("count", 0),
                    cell(hist.get("mean") if hist.get("count") else None),
                    cell(hist.get("min")),
                    cell(hist.get("max")),
                ]
            )
        sections.append(table.render())
    return "\n\n".join(sections)


def render_performance_summary(result: PerformanceResult) -> str:
    """A full dossier for one performance run."""
    header = Table(
        ["Phase", "% of max", "Stabilized", "Simulated (s)", "Bytes moved (MiB)"],
        title=f"{result.policy_label} / {result.workload}",
    )
    for name, phase in (
        ("application", result.application),
        ("sequential", result.sequential),
    ):
        header.add_row(
            [
                name,
                f"{phase.percent:.1f}%",
                "yes" if phase.stabilized else "no",
                f"{phase.simulated_ms / 1000:.0f}",
                f"{phase.bytes_moved / 2**20:.1f}",
            ]
        )

    operations = Table(
        ["Operation", "Count", "Mean latency (ms)"],
        title="Operation mix",
    )
    for op in sorted(result.operation_counts):
        operations.add_row(
            [
                op,
                result.operation_counts[op],
                f"{result.operation_latency_ms.get(op, 0.0):.1f}",
            ]
        )

    footer = [
        f"final utilization : {100 * result.final_utilization:.1f}%",
        f"disk-full events  : {result.disk_full_events}",
        f"governor converts : {result.governor_conversions}",
    ]
    if result.io_failures:
        footer.append(f"I/O failures      : {result.io_failures}")
    sections = [header.render(), operations.render(), "\n".join(footer)]
    if result.faults is not None:
        sections.append(render_fault_summary(result.faults))
    if result.metrics is not None:
        sections.append(render_metrics_snapshot(result.metrics))
    return "\n\n".join(sections)

