"""Observability: span tracing, metrics, exporters, live sweep telemetry.

The paper's results are aggregates; this package makes individual
requests visible.  Four pieces, wired through every simulator layer:

* :mod:`repro.obs.tracer` — parent/child spans following each logical
  request from workload driver through file system, allocator, and disk
  queue to drive service.  Attached as ``sim.tracer``; ``None`` (the
  default) is the zero-overhead disabled path.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, totals, and
  fixed-bucket latency histograms recorded at subsystem boundaries.
  Attached as ``sim.metrics``; the experiment runner and service each
  own one for their ``core.*`` and ``serve.*`` counters (the service's
  snapshot is ``/v1/stats``).
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  Perfetto / ``about:tracing``) and JSONL exporters, byte-deterministic
  for a fixed seed.
* :mod:`repro.obs.telemetry` — periodic progress frames streamed from
  sweep workers over their supervision pipes, rendered live on stderr.

Determinism: span ids are a sequential counter over a deterministic
simulation, all timestamps come from the simulated clock, and exporters
emit canonical JSON — so a fixed ``(config, seed)`` produces
bit-identical traces across runs, worker counts, and engine variants
(the test suite asserts all three).
"""

from .export import trace_to_chrome, trace_to_jsonl
from .metrics import DEFAULT_LATENCY_EDGES, MetricsRegistry
from .telemetry import (
    SweepTelemetry,
    emit,
    install_emitter,
    telemetry_enabled,
    uninstall_emitter,
)
from .tracer import (
    TID_FS,
    TID_WORKLOAD,
    Span,
    TraceData,
    Tracer,
    drive_lane,
)

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "MetricsRegistry",
    "Span",
    "SweepTelemetry",
    "TID_FS",
    "TID_WORKLOAD",
    "TraceData",
    "Tracer",
    "drive_lane",
    "emit",
    "install_emitter",
    "telemetry_enabled",
    "trace_to_chrome",
    "trace_to_jsonl",
    "uninstall_emitter",
]
