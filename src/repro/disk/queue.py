"""The request queue in front of each drive: FCFS or elevator.

The paper does not study queueing disciplines (no policy under evaluation
touches scheduling), so every paper result serves requests first-come
first-served — the 1991-era default.  The elevator (SCAN) discipline is
an extension for scheduling-sensitivity studies: it serves the nearest
queued request in the current sweep direction.  Under either discipline
the queue itself stays in submission order (arrivals append at the tail;
the elevator removes its pick by position).  Each drive is busy with
exactly one request at a time; submission returns a
:class:`~repro.sim.engine.Waitable` that succeeds with the request's
:class:`~repro.disk.request.ServiceBreakdown` when the transfer
completes.

Observability: when the owning simulator carries a tracer, each request
becomes a span tree on the drive's trace lane — ``disk.read``/``disk.write``
(submit to completion) with a ``disk.queue`` child (submit to service
start) and a ``disk.service`` child (service start to completion, with the
seek/rotation/transfer breakdown in its args).  When it carries a metrics
registry, queue-wait and service latencies land in fixed-bucket histograms,
as do each request's seek distance (read off the drive's head position
before service moves it) and seek time (before fault scaling), and the
seek/rotation/transfer split accumulates in float totals.  Both
are guarded by ``is not None`` checks, record at times the queue already
computes, and schedule nothing — the served event sequence is identical
with or without them.
"""

from __future__ import annotations

from collections import deque

from ..errors import InvalidRequestError, SimulationError
from ..obs.metrics import SEEK_DISTANCE_EDGES
from ..sim.engine import Simulator, Waitable
from .drive import DiskDrive
from .geometry import DiskGeometry
from .request import DiskRequest, IoKind, ServiceBreakdown


class QueuedDrive:
    """One drive plus its request queue, wired into the event engine.

    Every completed request credits the simulator's ``meter`` (when one
    is attached) over its service span.  Metering at the drive level
    counts the bytes the disk system actually moved, request by request,
    so long logical transfers credit every interval they occupy.

    Args:
        discipline: ``"fcfs"`` (the 1991 default used for every paper
            result) or ``"elevator"`` (SCAN: serve the nearest request in
            the current sweep direction — an extension for studying
            scheduling sensitivity).
        index: this drive's position in the owning organization; names
            the drive's trace lane and metrics.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        discipline: str = "fcfs",
        index: int = 0,
    ) -> None:
        if discipline not in ("fcfs", "elevator"):
            raise SimulationError(f"unknown queue discipline {discipline!r}")
        self.sim = sim
        self.discipline = discipline
        self.index = index
        self._use_elevator = discipline == "elevator"
        self.drive = DiskDrive(geometry)
        self._direction = 1  # elevator sweep direction
        self._queue: deque[tuple[DiskRequest, Waitable, float, tuple | None]] = deque()
        self._busy = False
        self.busy_ms = 0.0
        self.bytes_moved = 0
        self.requests_served = 0
        self.requests_enqueued = 0
        #: Per-drive fault flags, attached by a
        #: :class:`~repro.fault.injector.FaultInjector`; ``None`` (the
        #: default) keeps the service path fault-free and bit-identical
        #: to the pre-fault-subsystem model.
        self.fault_state = None

    @property
    def geometry(self) -> DiskGeometry:
        """The drive's geometry."""
        return self.drive.geometry

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a request is in service."""
        return self._busy

    def submit(self, request: DiskRequest) -> Waitable:
        """Enqueue a request; returns its completion waitable.

        Raises:
            InvalidRequestError: when the request's span falls outside
                this drive's capacity — validated at submission, not at
                service start, so the failure surfaces synchronously in
                the caller rather than later inside an engine callback.
        """
        if request.end_byte > self.drive.geometry.capacity_bytes:
            raise InvalidRequestError(
                f"request [{request.start_byte}, {request.end_byte}) exceeds "
                f"drive capacity {self.drive.geometry.capacity_bytes}"
            )
        completion = Waitable()
        spans = None
        tracer = self.sim.tracer
        if tracer is not None:
            lane = 10 + self.index  # obs.tracer.drive_lane, inlined
            rspan = tracer.begin(
                f"disk.{request.kind.value}",
                "disk",
                tracer.context,
                lane,
                {"start": request.start_byte, "bytes": request.n_bytes},
            )
            qspan = tracer.begin("disk.queue", "disk", rspan.span_id, lane)
            spans = (rspan, qspan)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.gauge_max(
                f"disk.queue_depth_max.d{self.index}", len(self._queue) + 1
            )
        self.requests_enqueued += 1
        self._queue.append((request, completion, self.sim.now, spans))
        if not self._busy:
            self._start_next(self.sim)
        return completion

    # -- internals ----------------------------------------------------------

    def _start_next(self, sim: Simulator) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        if self._use_elevator:
            request, completion, submitted_at, spans = self._pop_elevator()
        else:
            request, completion, submitted_at, spans = self._queue.popleft()
        now = sim.now
        drive = self.drive
        metrics = sim.metrics
        if metrics is not None:
            # The head position before service() moves it, and the seek
            # time before _apply_faults scales it.
            head = drive.head_cylinder
            breakdown = drive.service(request, now)
            metrics.observe(
                "disk.seek_distance_cyl",
                abs(drive.cylinder_of(request.start_byte) - head),
                SEEK_DISTANCE_EDGES,
            )
            metrics.observe("disk.seek_ms_dist", breakdown.seek_ms)
        else:
            breakdown = drive.service(request, now)
        faults = self.fault_state
        retried = False
        if faults is not None:
            breakdown, retried = self._apply_faults(
                faults, request, now, breakdown
            )
        total_ms = breakdown.total_ms
        self.busy_ms += total_ms
        self.bytes_moved += request.n_bytes
        self.requests_served += 1
        rspan = None
        if spans is not None:
            rspan, qspan = spans
            self.sim.tracer.end(qspan)
        if metrics is not None:
            metrics.observe("disk.queue_wait_ms", now - submitted_at)
            metrics.add("disk.seek_ms", breakdown.seek_ms)
            metrics.add("disk.rotation_ms", breakdown.rotation_ms)
            metrics.add("disk.transfer_ms", breakdown.transfer_ms)
            metrics.incr(f"disk.requests.d{self.index}")
            if retried:
                metrics.incr("disk.transient_retries")
        # Direct heap push: service times are strictly positive (every
        # request moves at least one byte), so this is sim.schedule minus
        # the sign/zero-delay checks — one call per request served.
        sim._push_timer(
            now + total_ms,
            self._complete,
            (completion, breakdown, request.n_bytes, rspan),
        )

    def _apply_faults(
        self,
        faults,
        request: DiskRequest,
        now: float,
        breakdown: ServiceBreakdown,
    ) -> tuple[ServiceBreakdown, bool]:
        """Fault-adjusted service time: soft-error retries, slow spindles.

        Whole-disk failures are routed *around* this drive by the owning
        organization (degraded reads), so they never reach here; what
        does reach here is served — including rebuild traffic directed at
        a replacement drive.  Returns the adjusted breakdown plus whether
        a transient retry occurred (for the metrics layer).
        """
        retried = False
        if (
            faults.has_transients
            and request.kind is IoKind.READ
            and faults.sample_transient(now)
        ):
            breakdown = self.drive.retry_service(breakdown)
            retried = True
        factor = faults.slow_factor
        if factor != 1.0:
            breakdown = breakdown.scaled(factor)
        return breakdown, retried

    def _complete(
        self,
        sim: Simulator,
        completion: Waitable,
        breakdown: ServiceBreakdown,
        n_bytes: int,
        rspan=None,
    ) -> None:
        meter = sim.meter
        if meter is not None:
            meter.record_span(sim.now - breakdown.total_ms, sim.now, n_bytes)
        if rspan is not None:
            tracer = sim.tracer
            tracer.complete(
                "disk.service",
                "disk",
                rspan.span_id,
                rspan.tid,
                sim.now - breakdown.total_ms,
                sim.now,
                {
                    "seek_ms": breakdown.seek_ms,
                    "rotation_ms": breakdown.rotation_ms,
                    "transfer_ms": breakdown.transfer_ms,
                },
            )
            tracer.end(rspan)
        metrics = sim.metrics
        if metrics is not None:
            metrics.observe("disk.service_ms", breakdown.total_ms)
        completion.succeed(sim, breakdown)
        self._start_next(sim)

    def _pop_elevator(self) -> tuple[DiskRequest, Waitable, float, tuple | None]:
        """SCAN: nearest request ahead in the sweep direction, else reverse.

        The selection scan tracks the chosen entry's *index* so it can be
        removed positionally: ``deque.remove`` would re-scan the queue
        comparing whole ``(request, waitable, ...)`` tuples element by
        element against every entry.  Ties keep the earliest-submitted
        entry, exactly as ``min`` over the queue-ordered candidates did.
        """
        head = self.drive.head_cylinder
        cylinder_of = self.drive.cylinder_of
        direction = self._direction
        queue = self._queue
        best_index = -1
        best_dist = 0
        for index, entry in enumerate(queue):
            delta = cylinder_of(entry[0].start_byte) - head
            if delta * direction >= 0:
                dist = delta if delta >= 0 else -delta
                if best_index < 0 or dist < best_dist:
                    best_index, best_dist = index, dist
        if best_index < 0:
            self._direction = -direction
            for index, entry in enumerate(queue):
                delta = cylinder_of(entry[0].start_byte) - head
                dist = delta if delta >= 0 else -delta
                if best_index < 0 or dist < best_dist:
                    best_index, best_dist = index, dist
        chosen = queue[best_index]
        del queue[best_index]
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueuedDrive {self.geometry.name} depth={self.queue_depth} "
            f"busy={self._busy}>"
        )
