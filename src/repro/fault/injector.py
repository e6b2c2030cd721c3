"""Runtime fault injection: scheduling, per-drive state, degraded meters.

The :class:`FaultInjector` binds a declarative
:class:`~repro.fault.plan.FaultSpec` to one simulation: it attaches a
:class:`DriveFaultState` to every drive (read by
:class:`~repro.disk.queue.QueuedDrive` on its service path), schedules
the spec's failures/slowdowns through the event engine, launches the
organization's background rebuild when a replacement drive arrives, and
meters how the system performs while degraded.

Determinism: every stochastic decision (transient-fault draws) comes from
a :class:`~repro.sim.rng.RandomStream` derived from ``(seed, spec
seed_salt, drive index)``, and every state flip is an ordinary simulator
event — so a fixed ``(spec, seed)`` reproduces bit-identical results in
any process, at any worker count, and on both engine variants
(``immediate_queue`` on or off), which the test suite asserts.

Metering: the injector snapshots the system's cumulative byte counter at
every degraded/healthy transition, attributing each simulated interval's
traffic to the mode it ran under.  Rebuild traffic is counted separately
(``rebuild_bytes``) and excluded from the degraded-mode number, so
``degraded_percent_of_healthy`` compares *foreground* service rates.

Observability: each of the five state flips (``disk-failure``,
``rebuild-start``, ``drive-restored``, ``slowdown-start``,
``slowdown-end``) is recorded where it happens, as an instant on the
drive's trace lane when ``sim.tracer`` is attached and as a
``fault.<kind>`` counter when ``sim.metrics`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import FaultError
from ..obs.tracer import drive_lane
from ..sim.engine import Simulator
from ..sim.rng import RandomStream
from .plan import ALL_DRIVES, FaultSpec


class DriveFaultState:
    """Mutable per-drive fault flags, read on the drive's service path.

    ``available`` gates routing: organizations skip (mirror), reconstruct
    around (RAID-5), or reject (plain stripe) requests for an unavailable
    drive.  ``slow_factor`` scales service times.  ``sample_transient``
    draws whether one read fails and must be retried.
    """

    __slots__ = (
        "index",
        "available",
        "status",
        "slow_factor",
        "_slow_stack",
        "_windows",
        "_rng",
        "transient_errors",
        "failures",
    )

    def __init__(self, index: int, rng: RandomStream) -> None:
        self.index = index
        self.available = True
        self.status = "healthy"  # healthy | failed | rebuilding
        self.slow_factor = 1.0
        self._slow_stack: list[float] = []
        #: (rate, start_ms, end_ms) transient windows affecting this drive.
        self._windows: list[tuple[float, float, float]] = []
        self._rng = rng
        self.transient_errors = 0
        self.failures = 0

    def add_transient_window(self, rate: float, start: float, end: float) -> None:
        self._windows.append((rate, start, end))

    @property
    def has_transients(self) -> bool:
        return bool(self._windows)

    def sample_transient(self, now: float) -> bool:
        """Draw whether a read starting at ``now`` suffers a soft error.

        One RNG draw per active window, in registration order, so the
        stream is a pure function of the request sequence.
        """
        failed = False
        for rate, start, end in self._windows:
            if start <= now <= end and self._rng.random() < rate:
                failed = True
        if failed:
            self.transient_errors += 1
        return failed

    def push_slow(self, factor: float) -> None:
        self._slow_stack.append(factor)
        self._recompute_slow()

    def pop_slow(self, factor: float) -> None:
        self._slow_stack.remove(factor)
        self._recompute_slow()

    def _recompute_slow(self) -> None:
        product = 1.0
        for factor in self._slow_stack:
            product *= factor
        self.slow_factor = product


@dataclass(frozen=True)
class FaultSummary:
    """What the injector observed over one run (deterministic per seed).

    ``degraded_bytes``/``degraded_ms`` cover intervals where at least one
    drive was failed or rebuilding, with rebuild traffic excluded; the
    healthy fields cover everything else.  The headline meter is
    :attr:`degraded_percent_of_healthy` — degraded-mode foreground
    throughput as a percentage of healthy-mode throughput.
    """

    disk_failures: int
    transient_errors: int
    slowdowns: int
    rebuilds_completed: int
    healthy_ms: float
    degraded_ms: float
    healthy_bytes: float
    degraded_bytes: float
    rebuild_bytes: float

    @property
    def healthy_throughput(self) -> float:
        """Healthy-mode foreground bytes/ms (0 when never healthy)."""
        return self.healthy_bytes / self.healthy_ms if self.healthy_ms > 0 else 0.0

    @property
    def degraded_throughput(self) -> float:
        """Degraded-mode foreground bytes/ms (0 when never degraded)."""
        return (
            self.degraded_bytes / self.degraded_ms if self.degraded_ms > 0 else 0.0
        )

    @property
    def degraded_percent_of_healthy(self) -> float | None:
        """Degraded throughput as % of healthy throughput (the meter the
        mirrored/RAID-5 organizations exist to keep high).

        ``None`` when there is no healthy baseline to compare against —
        a run that spent its whole window degraded, or one that moved no
        bytes while healthy.  Returning 0.0 there (as this once did)
        read as "degraded mode moved nothing", which is a different and
        usually false claim; reports render the ``None`` as ``n/a``.
        """
        if self.healthy_ms <= 0 or self.healthy_bytes <= 0:
            return None
        return 100.0 * self.degraded_throughput / self.healthy_throughput


class FaultInjector:
    """Wires a :class:`FaultSpec` into one simulator + disk system."""

    def __init__(
        self,
        sim: Simulator,
        system,
        spec: FaultSpec,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.system = system
        self.spec = spec
        self.seed = seed
        n = len(system.drives)
        root = RandomStream(seed, f"faults/{spec.seed_salt}")
        self.states = [
            DriveFaultState(i, root.fork(f"drive/{i}")) for i in range(n)
        ]
        self._unavailable: set[int] = set()
        self.rebuild_bytes = 0
        self.rebuilds_completed = 0
        self.slowdowns_applied = 0
        # Degraded-window accounting (byte counters snapshotted at flips).
        self._healthy_ms = 0.0
        self._degraded_ms = 0.0
        self._healthy_bytes = 0.0
        self._degraded_bytes = 0.0
        self._window_started = sim.now
        self._bytes_at_window_start = system.total_bytes_moved
        self._rebuild_bytes_at_window_start = 0

        self._validate(n)
        for drive, state in zip(system.drives, self.states):
            drive.fault_state = state
        for spec_t in spec.transients:
            targets = (
                range(n) if spec_t.drive == ALL_DRIVES else (spec_t.drive,)
            )
            for index in targets:
                self.states[index].add_transient_window(
                    spec_t.rate, spec_t.start_ms, spec_t.end_ms
                )
        system.fault_injector = self
        self._schedule()

    # -- setup -------------------------------------------------------------

    def _validate(self, n: int) -> None:
        for f in self.spec.failures:
            if f.drive >= n:
                raise FaultError(
                    f"failure targets drive {f.drive} but system has {n}"
                )
        for s in self.spec.slowdowns:
            if s.drive != ALL_DRIVES and s.drive >= n:
                raise FaultError(
                    f"slowdown targets drive {s.drive} but system has {n}"
                )
        for t in self.spec.transients:
            if t.drive != ALL_DRIVES and t.drive >= n:
                raise FaultError(
                    f"transients target drive {t.drive} but system has {n}"
                )
        seen: set[int] = set()
        for f in self.spec.failures:
            if f.drive in seen:
                raise FaultError(
                    f"drive {f.drive} fails twice in one plan (unsupported)"
                )
            seen.add(f.drive)

    def _schedule(self) -> None:
        sim = self.sim
        for f in self.spec.failures:
            sim.schedule_at(f.at_ms, self._fail_drive, f.drive)
            if f.repair_after_ms is not None:
                sim.schedule_at(
                    f.at_ms + f.repair_after_ms, self._repair_drive, f.drive
                )
        for s in self.spec.slowdowns:
            targets = (
                range(len(self.states))
                if s.drive == ALL_DRIVES
                else (s.drive,)
            )
            for index in targets:
                sim.schedule_at(s.at_ms, self._slow_start, index, s.factor)
                if not math.isinf(s.duration_ms):
                    sim.schedule_at(
                        s.at_ms + s.duration_ms, self._slow_end, index, s.factor
                    )

    # -- event callbacks ---------------------------------------------------

    def _fail_drive(self, sim: Simulator, index: int) -> None:
        state = self.states[index]
        state.available = False
        state.status = "failed"
        state.failures += 1
        self._mark_unavailable(index)
        self._record(sim, "disk-failure", index)

    def _repair_drive(self, sim: Simulator, index: int) -> None:
        state = self.states[index]
        if state.status != "failed":  # pragma: no cover - plan validation
            raise FaultError(f"repair of drive {index} which is not failed")
        rebuild = self.system.start_rebuild(
            index, self.spec.rebuild_rows_per_chunk
        )
        if rebuild is None:
            # No redundancy to rebuild from: the replacement simply comes
            # online (contents restored out of band, e.g. from backup).
            self._drive_back(sim, index)
        else:
            state.status = "rebuilding"
            self._record(sim, "rebuild-start", index)
            sim.process(
                self._run_rebuild(index, rebuild), name=f"rebuild/d{index}"
            )

    def _run_rebuild(self, index: int, rebuild):
        yield from rebuild
        self.rebuilds_completed += 1
        self._drive_back(self.sim, index)

    def _drive_back(self, sim: Simulator, index: int) -> None:
        state = self.states[index]
        state.status = "healthy"
        state.available = True
        self._mark_available(index)
        self._record(sim, "drive-restored", index)

    def _slow_start(self, sim: Simulator, index: int, factor: float) -> None:
        self.states[index].push_slow(factor)
        self.slowdowns_applied += 1
        self._record(sim, "slowdown-start", index)

    def _slow_end(self, sim: Simulator, index: int, factor: float) -> None:
        self.states[index].pop_slow(factor)
        self._record(sim, "slowdown-end", index)

    def _record(self, sim: Simulator, kind: str, index: int) -> None:
        """Record one state flip as an instant on the drive's trace lane
        and as a ``fault.<kind>`` count, for whichever is attached."""
        tracer = sim.tracer
        if tracer is not None:
            tracer.instant(kind, "fault", drive_lane(index))
        metrics = sim.metrics
        if metrics is not None:
            metrics.incr(f"fault.{kind}")

    # -- degraded-window accounting ---------------------------------------

    @property
    def degraded(self) -> bool:
        """True while at least one drive is failed or rebuilding."""
        return bool(self._unavailable)

    def note_rebuild_bytes(self, n_bytes: int) -> None:
        """Called by the organizations' rebuild loops, chunk by chunk."""
        self.rebuild_bytes += n_bytes

    def _close_window(self, degraded: bool) -> None:
        now = self.sim.now
        elapsed = now - self._window_started
        moved = (
            self.system.total_bytes_moved - self._bytes_at_window_start
        ) - (self.rebuild_bytes - self._rebuild_bytes_at_window_start)
        if degraded:
            self._degraded_ms += elapsed
            self._degraded_bytes += moved
        else:
            self._healthy_ms += elapsed
            self._healthy_bytes += moved
        self._window_started = now
        self._bytes_at_window_start = self.system.total_bytes_moved
        self._rebuild_bytes_at_window_start = self.rebuild_bytes

    def _mark_unavailable(self, index: int) -> None:
        if not self._unavailable:
            self._close_window(degraded=False)
        self._unavailable.add(index)

    def _mark_available(self, index: int) -> None:
        self._unavailable.discard(index)
        if not self._unavailable:
            self._close_window(degraded=True)

    # -- reporting ---------------------------------------------------------

    def summary(self, up_to_time: float | None = None) -> FaultSummary:
        """Snapshot the meters, closing the currently-open window.

        Safe to call repeatedly; does not disturb the accounting state
        (the open window is closed and immediately reopened).
        """
        if up_to_time is not None and up_to_time > self.sim.now:
            raise FaultError("summary time is in the simulated future")
        self._close_window(degraded=self.degraded)
        return FaultSummary(
            disk_failures=sum(s.failures for s in self.states),
            transient_errors=sum(s.transient_errors for s in self.states),
            slowdowns=self.slowdowns_applied,
            rebuilds_completed=self.rebuilds_completed,
            healthy_ms=self._healthy_ms,
            degraded_ms=self._degraded_ms,
            healthy_bytes=self._healthy_bytes,
            degraded_bytes=self._degraded_bytes,
            rebuild_bytes=float(self.rebuild_bytes),
        )
