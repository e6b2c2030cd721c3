"""The paper's three evaluation procedures (§3).

* :func:`run_allocation_experiment` — "run by performing only the extend,
  truncate, delete, and create operations ... As soon as the first
  allocation request fails, the external and internal fragmentation are
  computed."
* :func:`run_performance_experiment` — the application test (the §2.2
  workload mix, disks held 90–95 % full) followed by the sequential test
  ("only read and write operations ... each read or write is to an entire
  file"), each measured until the 3×10 s ±0.1 % stabilization rule fires
  or a simulated-time cap is hit.

Throughput is reported as a fraction of the disk system's maximum
sustained sequential bandwidth, the paper's normalization.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable

from ..audit.fingerprint import Fingerprint
from ..audit.invariants import AuditConfig, InvariantAuditor
from ..errors import ConfigurationError, DiskFullError
from ..fault.injector import FaultInjector, FaultSummary
from ..fs.filesystem import FileSystem
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import emit, progress_frame, telemetry_enabled
from ..obs.tracer import TraceData, Tracer, drive_lane
from ..sim.engine import Simulator
from ..sim.meters import ThroughputMeter
from ..sim.rng import (
    PreparedWeights,
    RandomStream,
    StreamLedger,
    install_ledger,
    uninstall_ledger,
)
from ..workload.driver import (
    AllocationTestResult,
    WorkloadDriver,
    run_allocation_until_full,
)
from ..workload.ops import sample_rw_size
from ..workload.profiles import (
    Profile,
    supercomputer,
    time_sharing,
    transaction_processing,
)
from .configs import ExperimentConfig, SystemConfig

#: Default simulated-time caps (milliseconds).  Stabilization usually
#: fires earlier; the caps bound adversarial configurations.
DEFAULT_APP_CAP_MS = 600_000.0
DEFAULT_SEQ_CAP_MS = 600_000.0
DEFAULT_WARMUP_MS = 5_000.0

#: Default initial fill for allocation tests.  TP and SC populations are
#: the paper's fixed file sets (~75 % of capacity) whose extends dominate
#: their truncates, so churn carries them to the first failure.  TS file
#: sizes *hover* (small files delete/recreate at the same size; large
#: files drift up only ~15 %), so its allocation test must start close to
#: full — 90 % — for the churn to reach a failure in bounded time.
ALLOCATION_TEST_FILL = {"TS": 0.90, "TP": 0.75, "SC": 0.75}


def allocation_fill_for(workload: str) -> float:
    """Default allocation-test initial fill for a workload."""
    return ALLOCATION_TEST_FILL.get(workload.strip().upper(), 0.85)


def build_profile(
    workload: str, system: SystemConfig, fill_fraction: float
) -> Profile:
    """Construct the §2.2 profile for a workload at the system's scale.

    TS populations are solved from capacity (sizes stay 8K/96K); TP and SC
    use the paper's populations with file sizes scaled alongside the disk.
    """
    key = workload.strip().upper()
    if key == "TS":
        return time_sharing(system.capacity_bytes, fill_fraction=fill_fraction)
    if key == "TP":
        return transaction_processing(scale=system.scale)
    if key == "SC":
        return supercomputer(scale=system.scale)
    raise ConfigurationError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Allocation test
# ---------------------------------------------------------------------------


def run_allocation_experiment(
    config: ExperimentConfig,
    fill_fraction: float | None = None,
    max_operations: int = 5_000_000,
    audit: AuditConfig | None = None,
) -> AllocationTestResult:
    """Fill the disk through workload churn; measure fragmentation.

    ``audit`` attaches an :class:`~repro.audit.InvariantAuditor`; the
    allocation test never enters the event loop, so the auditor sweeps
    per churn *operation* instead of per executed event, plus once at
    the end.  Violations raise
    :class:`~repro.errors.InvariantViolation`.
    """
    if fill_fraction is None:
        fill_fraction = allocation_fill_for(config.workload)
    ledger = None
    if audit is not None:
        ledger = StreamLedger()
        install_ledger(ledger)
    # Same GC gate as the performance test (see there for why it cannot
    # change results): churn is short-lived-object heavy.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim = Simulator()
        array = config.system.build_array(sim)
        rng = RandomStream(config.seed, "allocation-experiment")
        allocator = config.policy.build(
            array.capacity_units, config.system.disk_unit_bytes, rng.fork("alloc")
        )
        fs = FileSystem(sim, array, allocator)
        auditor = None
        if audit is not None:
            auditor = InvariantAuditor(audit)
            auditor.observe(
                fs=fs, array=array, allocator=allocator, ledger=ledger
            )
        profile = build_profile(config.workload, config.system, fill_fraction)
        result = run_allocation_until_full(
            fs, profile, seed=config.seed, max_operations=max_operations,
            auditor=auditor,
        )
        if auditor is not None:
            auditor.finish(sim)
        return result
    finally:
        if gc_was_enabled:
            gc.enable()
        if ledger is not None:
            uninstall_ledger()


# ---------------------------------------------------------------------------
# Performance test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseResult:
    """One measured phase (application or sequential).

    Attributes:
        utilization: mean fraction of maximum bandwidth over the final
            stabilization window (the number the paper plots).
        stabilized: whether the ±0.1 % rule fired before the time cap.
        simulated_ms: simulated time the phase consumed.
        bytes_moved: data bytes transferred during measurement.
    """

    utilization: float
    stabilized: bool
    simulated_ms: float
    bytes_moved: float

    @property
    def percent(self) -> float:
        """Utilization as a percentage (paper units)."""
        return 100.0 * self.utilization


@dataclass(frozen=True)
class PerformanceResult:
    """Application + sequential results for one (policy, workload) pair.

    ``io_failures`` and ``faults`` are only non-trivial when the config
    carries a :class:`~repro.fault.plan.FaultSpec`; fault-free runs report
    0 and ``None``.  ``trace`` and ``metrics`` are filled only when the
    experiment was asked to observe itself (``collect_trace`` /
    ``collect_metrics``); carrying them on the result keeps observability
    output flowing through the same cache/pool plumbing as the numbers it
    explains — which is also what lets the determinism tests compare
    traces across worker counts.
    """

    policy_label: str
    workload: str
    application: PhaseResult
    sequential: PhaseResult
    final_utilization: float
    operation_counts: dict[str, int]
    operation_latency_ms: dict[str, float]
    disk_full_events: int
    governor_conversions: int
    io_failures: int = 0
    faults: FaultSummary | None = None
    trace: TraceData | None = None
    metrics: dict | None = None
    #: Canonical state-fingerprint timeline (``audit=`` with fingerprints
    #: on); rides the cache/pool plumbing like traces do, which is what
    #: lets the determinism tests compare timelines across worker counts
    #: and engine variants.
    fingerprints: tuple[Fingerprint, ...] | None = None


class _PhaseMonitor:
    """Periodic stabilization check that can be retired between phases.

    The monitor's tick doubles as the live-telemetry heartbeat: it is an
    event the simulation schedules anyway, so progress frames ride along
    without adding engine work (frames are only built when an emitter is
    installed — see :mod:`repro.obs.telemetry`).
    """

    def __init__(
        self,
        sim: Simulator,
        meter: ThroughputMeter,
        interval_ms: float,
        window: int,
        tolerance: float,
        stage: str = "measure",
        cap_ms: float | None = None,
    ) -> None:
        self._active = True
        self.fired = False
        self._stage = stage
        self._cap_ms = cap_ms
        self._started = sim.now
        sim.process(self._loop(sim, meter, interval_ms, window, tolerance))

    def _loop(self, sim, meter, interval_ms, window, tolerance):
        while self._active:
            yield interval_ms
            if not self._active:
                return
            if telemetry_enabled():
                emit(
                    progress_frame(
                        self._stage,
                        sim.now - self._started,
                        cap_ms=self._cap_ms,
                        events=sim.events_executed,
                    )
                )
            if meter.stabilized(sim.now, window, tolerance):
                self.fired = True
                sim.stop()
                return

    def retire(self) -> None:
        self._active = False


def _prefill(
    fs: FileSystem, driver: WorkloadDriver, profile: Profile, target: float, seed: int
) -> None:
    """Untimed extends until utilization reaches ``target``.

    This is initialization, not measurement: the paper guarantees "the
    disks are at least 90% full ... during the test", and growing the
    population through each type's own extend stream (sizes and type mix
    included) reaches that state without simulating hours of warm-up.
    """
    growers = [t for t in profile.types if t.extend_ratio > 0]
    if not growers:
        return
    rng = RandomStream(seed, "prefill")
    # Prepared once, outside the loop: each pick is then one uniform
    # draw and one bisect over the same cumulative sums.
    prepared = PreparedWeights(
        growers, [t.extend_ratio * t.event_rate for t in growers]
    )
    guard = 0
    while fs.utilization < target:
        file_type = rng.weighted_choice_prepared(prepared)
        population = driver.files.get(file_type.name)
        if not population:
            return
        fs_file = rng.choice(population)
        size = sample_rw_size(rng, file_type)
        try:
            fs.allocate_to(fs_file, fs_file.length_bytes + size)
        except DiskFullError:
            return
        guard += 1
        if guard > 20_000_000:  # pragma: no cover - runaway guard
            raise ConfigurationError("prefill failed to reach target fill")


def _measure_phase(
    sim: Simulator,
    max_bandwidth: float,
    cap_ms: float,
    interval_ms: float,
    window: int,
    tolerance: float,
    stage: str = "measure",
) -> PhaseResult:
    """Attach a fresh meter, run to stabilization or the cap, report."""
    meter = ThroughputMeter(max_bandwidth, interval_ms, start_time=sim.now)
    sim.meter = meter
    monitor = _PhaseMonitor(
        sim, meter, interval_ms, window, tolerance, stage=stage, cap_ms=cap_ms
    )
    started = sim.now
    sim.run(until=started + cap_ms)
    monitor.retire()
    sim.meter = None
    return PhaseResult(
        utilization=meter.stable_utilization(sim.now, window),
        stabilized=monitor.fired,
        simulated_ms=sim.now - started,
        bytes_moved=meter.total_bytes,
    )


def collect_metrics_snapshot(
    sim: Simulator,
    fs: FileSystem,
    driver: WorkloadDriver,
    faults: FaultSummary | None = None,
) -> dict:
    """Fold the metrics registry and the simulator's existing counters
    into one JSON-safe snapshot.

    The registry holds only what no pre-existing counter captures
    (histograms, degraded transitions, per-drive maxima); everything the
    subsystems already tracked — per-drive tallies, operation counts,
    allocator request totals, fault-window meters — is merged in here so
    one dict describes the run.
    """
    snapshot = sim.metrics.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    totals = snapshot["totals"]
    counters["sim.events_executed"] = sim.events_executed
    counters["fs.bytes_read"] = fs.bytes_read
    counters["fs.bytes_written"] = fs.bytes_written
    counters.update(fs.allocator.counters())
    for op, tally in driver.op_latency.items():
        counters[f"workload.ops.{op}"] = tally.count
    counters["workload.disk_full_events"] = driver.disk_full_events
    counters["workload.governor_conversions"] = driver.governor_conversions
    counters["workload.io_failures"] = driver.io_failures
    for drive in fs.disk.drives:
        suffix = f".d{drive.index}"
        counters[f"disk.bytes_moved{suffix}"] = drive.bytes_moved
        totals[f"disk.busy_ms{suffix}"] = drive.busy_ms
    if faults is not None:
        counters["fault.disk_failures"] = faults.disk_failures
        counters["fault.transient_errors"] = faults.transient_errors
        counters["fault.rebuilds_completed"] = faults.rebuilds_completed
        totals["fault.healthy_ms"] = faults.healthy_ms
        totals["fault.degraded_ms"] = faults.degraded_ms
        totals["fault.rebuild_bytes"] = faults.rebuild_bytes
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "totals": dict(sorted(totals.items())),
        "histograms": snapshot["histograms"],
    }


def run_performance_experiment(
    config: ExperimentConfig,
    app_cap_ms: float = DEFAULT_APP_CAP_MS,
    seq_cap_ms: float = DEFAULT_SEQ_CAP_MS,
    warmup_ms: float = DEFAULT_WARMUP_MS,
    interval_ms: float = 10_000.0,
    window: int = 3,
    tolerance: float = 0.001,
    run_application: bool = True,
    run_sequential: bool = True,
    simulator_factory: Callable[[], Simulator] | None = None,
    collect_trace: bool = False,
    collect_metrics: bool = False,
    audit: AuditConfig | None = None,
) -> PerformanceResult:
    """The §3 application and sequential performance tests.

    Phases: populate (instant) → prefill to the 90–95 % window (instant)
    → short timed warm-up → application test to stabilization → switch
    every user to whole-file operations → sequential test.

    ``simulator_factory`` lets callers supply the engine — e.g. one they
    keep a handle on to read its counters (``repro profile``) or one with
    the zero-delay fast path disabled (the determinism regression tests).  The factory must
    return a fresh :class:`Simulator`; results are identical whichever
    engine variant it builds.

    ``collect_trace`` attaches a span tracer and ships the frozen trace
    on the result; ``collect_metrics`` attaches a metrics registry and
    ships its end-of-run snapshot.  Neither changes the simulated event
    sequence, so the performance numbers are bit-identical with
    observability on or off.

    ``audit`` attaches an :class:`~repro.audit.InvariantAuditor`: swept
    invariant checks (violations raise
    :class:`~repro.errors.InvariantViolation`) and, when the config asks
    for them, a canonical fingerprint timeline shipped on the result.
    Like observability, auditing schedules nothing — the event sequence
    and the reported numbers are identical with it on or off.
    """
    ledger = None
    if audit is not None:
        # Install before any stream exists so the ledger (and therefore
        # the rng fingerprint section) covers every stream in the run.
        ledger = StreamLedger()
        install_ledger(ledger)
    # Collector pauses while the experiment runs: the simulation allocates
    # millions of short-lived objects (events, extents, breakdowns) that
    # reference counting alone reclaims, so generation-0 sweeps are pure
    # overhead (~10% of wall time).  GC never alters program behaviour
    # here — no finalizer in the package touches simulation state — so
    # the event sequence and every result are identical either way.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim = Simulator() if simulator_factory is None else simulator_factory()
        if collect_metrics:
            sim.metrics = MetricsRegistry()
        array = config.system.build_array(sim)
        if collect_trace:
            tracer = sim.tracer = Tracer(sim)
            for drive in array.drives:
                tracer.name_lane(
                    drive_lane(drive.index),
                    f"drive {drive.index} ({drive.geometry.name})",
                )
        injector = None
        if config.faults is not None and not config.faults.empty:
            injector = FaultInjector(sim, array, config.faults, seed=config.seed)
        rng = RandomStream(config.seed, "perf-experiment")
        allocator = config.policy.build(
            array.capacity_units, config.system.disk_unit_bytes, rng.fork("alloc")
        )
        fs = FileSystem(sim, array, allocator)
        profile = build_profile(
            config.workload, config.system, config.fill_fraction
        )
        driver = WorkloadDriver(sim, fs, profile, seed=config.seed)
        auditor = None
        if audit is not None:
            auditor = InvariantAuditor(audit).attach(sim)
            auditor.observe(
                fs=fs, array=array, allocator=allocator,
                injector=injector, ledger=ledger,
            )
        if telemetry_enabled():
            emit(progress_frame("populate", sim.now))
        driver.populate()
        target = (driver.lower_bound + driver.upper_bound) / 2.0
        _prefill(fs, driver, profile, target, config.seed)
        driver.start_users()
        if telemetry_enabled():
            emit(progress_frame("warmup", sim.now, cap_ms=warmup_ms))
        sim.run(until=sim.now + warmup_ms)

        idle = PhaseResult(0.0, False, 0.0, 0.0)
        max_bandwidth = array.max_bandwidth_bytes_per_ms
        application = idle
        if run_application:
            application = _measure_phase(
                sim, max_bandwidth, app_cap_ms, interval_ms, window,
                tolerance, stage="application",
            )
        sequential = idle
        if run_sequential:
            driver.mode = "sequential"
            sequential = _measure_phase(
                sim, max_bandwidth, seq_cap_ms, interval_ms, window,
                tolerance, stage="sequential",
            )

        if auditor is not None:
            auditor.finish(sim)
        fault_summary = injector.summary(up_to_time=sim.now) if injector else None
        return _build_performance_result(
            config, fs, driver, sim, application, sequential,
            fault_summary, auditor,
        )
    finally:
        if gc_was_enabled:
            gc.enable()
        if ledger is not None:
            uninstall_ledger()


def _build_performance_result(
    config, fs, driver, sim, application, sequential, fault_summary, auditor
) -> PerformanceResult:
    """Assemble the result record from the finished run's subsystems."""
    return PerformanceResult(
        policy_label=config.policy.label,
        workload=config.workload,
        application=application,
        sequential=sequential,
        final_utilization=fs.utilization,
        operation_counts={
            op: tally.count for op, tally in driver.op_latency.items()
        },
        operation_latency_ms={
            op: tally.mean for op, tally in driver.op_latency.items()
        },
        disk_full_events=driver.disk_full_events,
        governor_conversions=driver.governor_conversions,
        io_failures=driver.io_failures,
        faults=fault_summary,
        trace=sim.tracer.freeze() if sim.tracer is not None else None,
        metrics=(
            collect_metrics_snapshot(sim, fs, driver, fault_summary)
            if sim.metrics is not None
            else None
        ),
        fingerprints=(
            tuple(auditor.fingerprints)
            if auditor is not None and auditor.config.fingerprints
            else None
        ),
    )
