"""The runtime invariant auditor: swept cross-checks of simulator state.

Every number the study reports is read off simulator-internal
bookkeeping, and bookkeeping bugs accumulate silently — a leaked extent
or a dropped queue entry surfaces as a subtly wrong figure, not a crash.
The :class:`InvariantAuditor` closes that gap: it hangs off the
simulator like the tracer does (``sim.auditor``, default ``None`` — the
zero-overhead path), and on a configurable executed-event cadence plus
at freeze it sweeps a registry of per-subsystem checks:

* **alloc** — conservation (free + allocated + unaddressable == total)
  and no-overlap, per policy (the ladder store of both buddy policies,
  extent/LFS interval maps, the fixed free list).
* **fs** — every live file's cumulative extent index agrees with its
  extents and covers its logical length; no dangling handles.
* **disk** — per-drive accounting (enqueued == served + queued +
  in-service) and submission-order preservation (FCFS and elevator).
* **clock** — simulated time never moves backwards.
* **rng** — per-stream draw counts only ever grow.
* **fault** — injector, per-drive flags, and the organization's
  degraded state all agree; mirrored/RAID-5 parity plans stay coherent.

A failed check raises :class:`~repro.errors.InvariantViolation` carrying
the sim time, subsystem, check name, and a state excerpt.  The same
sweep optionally samples a canonical fingerprint
(:mod:`repro.audit.fingerprint`), building the timeline the divergence
bisector compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable

from ..errors import ConfigurationError, InvariantViolation, ReproError
from .fingerprint import Fingerprint, canonical_digest, capture_state

__all__ = ["AuditConfig", "InvariantAuditor"]

#: Default sweep cadence: one sweep per this many executed events.
DEFAULT_CADENCE_EVENTS = 25_000


@dataclass(frozen=True)
class AuditConfig:
    """What the auditor does and how often.

    Attributes:
        invariants: run the registered checks at each sweep.
        fingerprints: sample a canonical state digest at each sweep.
        cadence_events: executed events between sweeps (1 = every event).
        capture_state: retain the full state payload alongside each
            fingerprint — the bisector's fine pass needs the payloads to
            show *what* diverged, not just that something did.
        start_event: first executed-event index eligible for sweeping.
        end_event: last eligible index (inclusive), ``None`` = no bound.
    """

    invariants: bool = True
    fingerprints: bool = False
    cadence_events: int = DEFAULT_CADENCE_EVENTS
    capture_state: bool = False
    start_event: int = 0
    end_event: int | None = None

    def __post_init__(self) -> None:
        if self.cadence_events < 1:
            raise ConfigurationError(
                f"audit cadence must be >= 1 event: {self.cadence_events}"
            )


class InvariantAuditor:
    """Pluggable per-subsystem checks plus the fingerprint timeline.

    Attach with ``sim.auditor = auditor`` (or :meth:`attach`), register
    subsystems with :meth:`observe`, and the engine's run loop calls
    :meth:`after_event` once per executed event.  Call
    :meth:`finish` when the experiment freezes for the final sweep.
    """

    def __init__(self, config: AuditConfig | None = None) -> None:
        self.config = config or AuditConfig()
        #: (subsystem, check name, callable) — callables take the sim and
        #: raise (anything) on violation; the auditor wraps the failure.
        self.checks: list[tuple[str, str, Callable[[Any], None]]] = []
        self.fingerprints: list[Fingerprint] = []
        #: Full state payloads, parallel to ``fingerprints``, only when
        #: ``config.capture_state`` is set.
        self.states: list[dict] = []
        self.sweeps = 0
        self.event_index = 0
        self._since_sweep = 0
        self._last_time = float("-inf")
        self.fs = None
        self.array = None
        self.allocator = None
        self.injector = None
        self.ledger = None
        self._rng_seen: dict[str, int] = {}

    # -- wiring --------------------------------------------------------------

    def attach(self, sim) -> "InvariantAuditor":
        """Install on a simulator (its run loop then dispatches to us)."""
        sim.auditor = self
        return self

    def observe(
        self, fs=None, array=None, allocator=None, injector=None, ledger=None
    ) -> None:
        """Register subsystems and their default checks.

        Safe to call more than once; each non-None argument replaces the
        previous registration of that subsystem.
        """
        if allocator is not None and self.allocator is None:
            self.register("alloc", "conservation", self._check_allocator)
        if fs is not None and self.fs is None:
            self.register("fs", "extmap-consistency", self._check_fs)
        if array is not None and self.array is None:
            self.register("disk", "queue-accounting", self._check_queues)
        if ledger is not None and self.ledger is None:
            self.register("rng", "draw-ledger", self._check_rng)
        if injector is not None and self.injector is None:
            self.register("fault", "state-consistency", self._check_faults)
        self.fs = fs if fs is not None else self.fs
        self.array = array if array is not None else self.array
        self.allocator = allocator if allocator is not None else self.allocator
        self.injector = injector if injector is not None else self.injector
        self.ledger = ledger if ledger is not None else self.ledger

    def register(
        self, subsystem: str, name: str, check: Callable[[Any], None]
    ) -> None:
        """Add a check; ``check(sim)`` raises on violation."""
        self.checks.append((subsystem, name, check))

    # -- engine hook ---------------------------------------------------------

    def after_event(self, sim) -> None:
        """Called by the run loop after every executed event."""
        self.event_index += 1
        index = self.event_index
        now = sim.now
        if now < self._last_time:
            raise InvariantViolation(
                now, "clock", "monotonicity",
                f"clock moved backwards: {self._last_time!r} -> {now!r}",
            )
        self._last_time = now
        config = self.config
        if index < config.start_event:
            return
        if config.end_event is not None and index > config.end_event:
            return
        self._since_sweep += 1
        if self._since_sweep >= config.cadence_events:
            self._since_sweep = 0
            self.sweep(sim)

    def sweep(self, sim, fingerprint: bool = True) -> None:
        """Run every registered check, then sample a fingerprint."""
        self.sweeps += 1
        if self.config.invariants:
            for subsystem, name, check in self.checks:
                try:
                    check(sim)
                except InvariantViolation:
                    raise
                except ReproError as exc:
                    raise InvariantViolation(
                        sim.now, subsystem, name, str(exc),
                        excerpt=self._excerpt(),
                    ) from exc
        if fingerprint and self.config.fingerprints:
            state = capture_state(
                sim, fs=self.fs, array=self.array,
                allocator=self.allocator, ledger=self.ledger,
            )
            self.fingerprints.append(
                Fingerprint(self.event_index, sim.now, canonical_digest(state))
            )
            if self.config.capture_state:
                self.states.append(state)

    def finish(self, sim) -> None:
        """Final sweep at freeze (cadence ignored).

        Invariant checks always run — a leak present at freeze must fail
        the run however the cadence fell.  The fingerprint sample still
        honors the config's event window, so a windowed replay (the
        bisector's probes) never picks up a stray end-of-run sample.
        """
        self._since_sweep = 0
        config = self.config
        in_window = self.event_index >= config.start_event and (
            config.end_event is None or self.event_index <= config.end_event
        )
        self.sweep(sim, fingerprint=in_window)

    def _excerpt(self) -> dict:
        """A small JSON-safe snapshot attached to violations."""
        excerpt: dict = {"event_index": self.event_index}
        allocator = self.allocator
        if allocator is not None:
            excerpt["alloc"] = {
                "policy": type(allocator).__name__,
                "allocated_units": allocator.allocated_units,
                "capacity_units": allocator.capacity_units,
                "live_files": len(allocator.files),
                "failed_requests": allocator.failed_requests,
            }
            # Policies with auxiliary free structures (the restricted
            # ladder store) report their own free-unit accounting too —
            # a conservation violation's excerpt then shows both sides
            # of the mismatch, not just the allocator's ledger.
            store = getattr(allocator, "store", None)
            free_units = getattr(store, "free_units", None)
            if free_units is not None:
                excerpt["alloc"]["store_free_units"] = free_units
        array = self.array
        if array is not None:
            excerpt["disk"] = [
                {
                    "index": d.index,
                    "enqueued": d.requests_enqueued,
                    "served": d.requests_served,
                    "depth": d.queue_depth,
                    "busy": d.busy,
                }
                for d in array.drives
            ]
        return excerpt

    # -- default checks ------------------------------------------------------

    def _check_allocator(self, sim) -> None:
        self.allocator.audit_check()

    def _check_fs(self, sim) -> None:
        fs = self.fs
        allocator = fs.allocator
        unit = fs.unit_bytes
        for fs_file in fs.live_files():
            handle = fs_file.handle
            if handle.deleted:
                raise InvariantViolation(
                    sim.now, "fs", "extmap-consistency",
                    f"file {fs_file.fs_id} references a deleted handle",
                    excerpt=self._excerpt(),
                )
            if allocator.files.get(handle.file_id) is not handle:
                raise InvariantViolation(
                    sim.now, "fs", "extmap-consistency",
                    f"file {fs_file.fs_id}: handle {handle.file_id} is "
                    f"dangling (unknown to the allocator)",
                    excerpt=self._excerpt(),
                )
            # One end per extent, each the running sum of the lengths: so
            # strictly increasing, the last one the units the file holds.
            held = list(accumulate(extent.length for extent in handle.extents))
            if handle.ends != held:
                raise InvariantViolation(
                    sim.now, "fs", "extmap-consistency",
                    f"file {fs_file.fs_id}: cumulative ends {handle.ends} "
                    f"disagree with its extents' running lengths {held}",
                    excerpt=self._excerpt(),
                )
            mapped = held[-1] if held else 0
            needed = -(-fs_file.length_bytes // unit)
            if needed > mapped:
                raise InvariantViolation(
                    sim.now, "fs", "extmap-consistency",
                    f"file {fs_file.fs_id}: logical length {fs_file.length_bytes} "
                    f"bytes needs {needed} units but only {mapped} are mapped",
                    excerpt=self._excerpt(),
                )

    def _check_queues(self, sim) -> None:
        for drive in self.array.drives:
            # ``requests_served`` ticks at service *start*, so it already
            # counts the in-service request the busy flag marks.
            accounted = drive.requests_served + drive.queue_depth
            if drive.requests_enqueued != accounted:
                raise InvariantViolation(
                    sim.now, "disk", "queue-accounting",
                    f"drive {drive.index}: {drive.requests_enqueued} enqueued "
                    f"!= {drive.requests_served} entered service + "
                    f"{drive.queue_depth} still queued",
                    excerpt=self._excerpt(),
                )
            if drive.busy and drive.requests_served == 0:
                raise InvariantViolation(
                    sim.now, "disk", "queue-accounting",
                    f"drive {drive.index} is busy with no request on record",
                    excerpt=self._excerpt(),
                )
            # Both disciplines keep the queue in submission order: FCFS
            # pops the head, the elevator deletes its pick by position,
            # and submissions always append at the tail.
            last = float("-inf")
            for _, _, submitted_at, _ in drive._queue:
                if submitted_at < last:
                    raise InvariantViolation(
                        sim.now, "disk", "queue-accounting",
                        f"drive {drive.index}: submission order violated "
                        f"({submitted_at!r} queued behind {last!r})",
                        excerpt=self._excerpt(),
                    )
                last = submitted_at

    def _check_rng(self, sim) -> None:
        for key, stream in self.ledger.items():
            seen = self._rng_seen.get(key, 0)
            if stream.draws < seen:
                raise InvariantViolation(
                    sim.now, "rng", "draw-ledger",
                    f"stream {stream.name!r} draw count regressed: "
                    f"{seen} -> {stream.draws}",
                    excerpt=self._excerpt(),
                )
            self._rng_seen[key] = stream.draws

    def _check_faults(self, sim) -> None:
        injector = self.injector
        array = self.array
        unavailable = {s.index for s in injector.states if not s.available}
        if unavailable != injector._unavailable:
            raise InvariantViolation(
                sim.now, "fault", "state-consistency",
                f"per-drive flags say {sorted(unavailable)} unavailable but "
                f"the injector tracks {sorted(injector._unavailable)}",
                excerpt=self._excerpt(),
            )
        for state, drive in zip(injector.states, array.drives):
            if drive.fault_state is not state:
                raise InvariantViolation(
                    sim.now, "fault", "state-consistency",
                    f"drive {drive.index} is detached from its fault state",
                    excerpt=self._excerpt(),
                )
            if state.status not in ("healthy", "failed", "rebuilding"):
                raise InvariantViolation(
                    sim.now, "fault", "state-consistency",
                    f"drive {state.index} has unknown status {state.status!r}",
                    excerpt=self._excerpt(),
                )
            if state.available != (state.status == "healthy"):
                raise InvariantViolation(
                    sim.now, "fault", "state-consistency",
                    f"drive {state.index}: status {state.status!r} "
                    f"contradicts available={state.available}",
                    excerpt=self._excerpt(),
                )
        if array.degraded != bool(unavailable):
            raise InvariantViolation(
                sim.now, "fault", "state-consistency",
                f"organization reports degraded={array.degraded} with "
                f"{len(unavailable)} drive(s) unavailable",
                excerpt=self._excerpt(),
            )
        self._check_parity_plan(sim, unavailable)

    def _check_parity_plan(self, sim, unavailable: set[int]) -> None:
        """Structural parity-plan coherence for the redundant layouts."""
        array = self.array
        kind = type(array).__name__
        if kind == "Raid5Array":
            n = array.n_disks
            rows = array._rows
            for row in {0, rows // 2, max(0, rows - 1)}:
                if array._parity_drive_of_row(row) != row % n:
                    raise InvariantViolation(
                        sim.now, "fault", "parity-plan",
                        f"RAID-5 parity rotation broken at row {row}",
                        excerpt=self._excerpt(),
                    )
            if array.capacity_bytes != array._per_drive_bytes * (n - 1):
                raise InvariantViolation(
                    sim.now, "fault", "parity-plan",
                    "RAID-5 data capacity no longer excludes one parity "
                    "drive per row",
                    excerpt=self._excerpt(),
                )
        elif kind == "MirroredArray":
            n_primary = len(array.primary.drives)
            if len(array.secondary.drives) != n_primary:
                raise InvariantViolation(
                    sim.now, "fault", "parity-plan",
                    "mirror copies hold different drive counts",
                    excerpt=self._excerpt(),
                )
            for i, drive in enumerate(array.drives):
                if drive.index != i:
                    raise InvariantViolation(
                        sim.now, "fault", "parity-plan",
                        f"mirror drive at position {i} is numbered "
                        f"{drive.index}; rebuild peer mapping would break",
                        excerpt=self._excerpt(),
                    )
