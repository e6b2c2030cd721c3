"""Metric definitions and the printed report.

``BENCHMARK.json`` at the repository root names every metric with its
unit; this module computes them.  End-to-end metrics come from an
untraced run, per-layer metrics from a traced one.  Every metric is
printed for every workload: a layer a workload does not cross reads 0.
"""

from __future__ import annotations

import json
import resource
from pathlib import Path

from .layers import LAYERS
from .common import LayerReport, Run, median, percentile

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def declared() -> dict:
    """The ``BENCHMARK.json`` document."""
    return json.loads(BENCHMARK_JSON.read_text())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for.

    Both are lifetime maxima, so a process measures one workload only.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for the untraced run."""
    samples = run.samples
    metrics = {
        "setup_s": (median(samples.get("setup_s", [])), len(samples.get("setup_s", []))),
        "wall_s": (median(samples.get("wall_s", [])), len(samples.get("wall_s", []))),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return metrics


def supplementary(run: Run) -> dict[str, tuple[float, str, int]]:
    """Unscaled times, the host-speed kernel, cache-hit latency, and the
    service latencies only ``serve_mix`` has.

    Printed, not bounded.  A bounded metric is reported for every
    workload, and on the simulation workloads a cache hit is a
    sub-millisecond replay whose spread over ten seeds (22-48%) exceeds
    the widest bound allowed (25%).
    """
    samples = run.samples
    hits = samples.get("hit_ms", [])
    refs = [ref * 1e3 for ref in run.timer.refs]
    rows: dict[str, tuple[float, str, int]] = {
        name: (median(samples.get(name, [])), "s", len(samples.get(name, [])))
        for name in ("setup_raw_s", "wall_raw_s")
    }
    rows["kernel_ms"] = (median(refs), "ms", len(refs))
    rows["hit_p50_ms"] = (median(hits), "ms", len(hits))
    if "req_ms" in samples:
        requests = samples["req_ms"]
        rows["req_per_s"] = (samples["req_per_s"][0], "req/s", len(requests))
        rows["miss_p50_ms"] = (median(samples.get("miss_ms", [])), "ms",
                               len(samples.get("miss_ms", [])))
        rows["req_p95_ms"] = (percentile(requests, 95), "ms", len(requests))
    return rows


def per_layer(report: LayerReport) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for the traced pass."""
    totals = report.totals
    wall = report.blocking_s
    metrics: dict[str, tuple[float, int]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (totals.self_s[layer] / wall, 1)
        metrics[f"{layer}.calls"] = (totals.calls[layer], 1)
    alloc_calls = totals.calls["alloc"]
    metrics["alloc.fail_ratio"] = (
        totals.counters.get("alloc.fails", 0) / alloc_calls if alloc_calls else 0.0, 1)
    metrics["disk.requests"] = (totals.counters.get("disk.requests", 0), 1)
    metrics["sim.events"] = (totals.counters.get("sim.events", 0), 1)
    metrics["workload.ops"] = (report.ops, 1)
    metrics["core.dispatch_share"] = (report.dispatch_share, 1)
    metrics["core.cache_store_ms_p50"] = (median(report.store_ms), len(report.store_ms))
    for name in ("http", "queue", "run", "complete", "ledger"):
        metrics[f"serve.{name}_share"] = (report.extra_shares.get(name, 0.0), 1)
    metrics["serve.cache_hit_ratio"] = (report.hit_ratio, 1)
    metrics["serve.dedup_fanin"] = (report.dedup_fanin, 1)
    metrics["trace.overhead"] = (report.traced_s / report.untraced_s - 1.0, 2)
    metrics["trace.unattributed"] = (1.0 - attributed_share(report), 1)
    return metrics


def attributed_share(report: LayerReport) -> float:
    """Share of the traced wall that some layer (or request phase) claims.

    The ledger share is part of the serve and complete shares, so it is
    not added again.
    """
    covered = sum(report.totals.self_s.values()) + report.blocking_s * sum(
        share for name, share in report.extra_shares.items() if name != "ledger"
    )
    return covered / report.blocking_s


def render(workload: str, seed: int, run: Run,
           metrics: dict[str, tuple[float, int]], units: dict[str, str],
           extra: dict[str, tuple[float, str, int]] | None = None) -> str:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"== {workload} seed={seed}: {run.attempted} attempted, "
             f"{run.failed} failed, combined digest {run.combined_digest()[:16]} "
             f"({len(run.combined_ids)} points)"]
    for problem in run.problems:
        lines.append(f"   FAILED: {problem}")
    for name, (value, count) in metrics.items():
        lines.append(f"   {name:28s} {value:>14.6g} {units.get(name, ''):9s} n={count}")
    for name, (value, unit, count) in (extra or {}).items():
        lines.append(f"   {name:28s} {value:>14.6g} {unit:9s} n={count}  (not bounded)")
    return "\n".join(lines)
