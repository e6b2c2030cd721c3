"""Single-drive timing model with deterministic rotational position.

The drive spins continuously, so at simulated time ``t`` its angular
position is ``(t / rotation) mod 1``.  Every byte has a fixed angular
address derived from its offset within its track plus a per-cylinder skew
equal to the single-track seek, so that a sequential scan that crosses a
cylinder boundary finds the first byte of the next cylinder arriving under
the head exactly as the seek completes (the classic track-skew layout).

Making rotation *positional* rather than sampled is what gives the model
the paper's sensitivity to allocation contiguity: logically sequential
blocks placed contiguously are read at media rate, while the same blocks
scattered by a poor allocator pay a seek plus most of a rotation each.

:meth:`DiskDrive.service` runs once per simulated disk request — millions
of times per experiment — so the drive caches every geometry-derived
constant at construction (seek table, skew fractions, track/cylinder
sizes) and keeps the arithmetic in :meth:`service`/:meth:`start_angle`
expression-for-expression identical to the naive formulation, which keeps
simulated results bit-identical while avoiding the repeated property
lookups and seek-model recomputation.

The drive records nothing itself: its head position is public
(``head_cylinder``), so the queue in front of it observes seek
distances when a metrics registry is attached.
"""

from __future__ import annotations

from ..errors import InvalidRequestError
from .geometry import DiskGeometry
from .request import DiskRequest, ServiceBreakdown


class DiskDrive:
    """Timing state of one physical drive (head position only).

    Queueing lives in :class:`repro.disk.queue.QueuedDrive`; this class
    answers "if service starts now, how long does this request take and
    where does it leave the head".
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self.head_cylinder = 0
        # Cylinder skew, as a fraction of a revolution.
        self._cylinder_skew = (
            geometry.seek_time(1) / geometry.rotation_ms
        ) % 1.0
        self._head_switch_skew = (
            geometry.head_switch_ms / geometry.rotation_ms
        ) % 1.0
        # Hot-path constants (service runs once per simulated request).
        self._track_bytes = geometry.track_bytes
        self._cylinder_bytes = geometry.cylinder_bytes
        self._platters = geometry.platters
        self._rotation_ms = geometry.rotation_ms
        self._head_switch_ms = geometry.head_switch_ms
        self._capacity_bytes = geometry.capacity_bytes
        self._seek_one = geometry.seek_time(1)
        self._seek_table = geometry.seek_table

    # -- address decomposition ------------------------------------------------

    def cylinder_of(self, byte_offset: int) -> int:
        """Cylinder holding ``byte_offset`` (cylinder-major layout)."""
        return byte_offset // self._cylinder_bytes

    def start_angle(self, byte_offset: int) -> float:
        """Angular address of a byte, in fractions of a revolution.

        Offset within the track, rotated by the cumulative skew of all
        preceding cylinder crossings and head switches so sequential
        layout is rotationally seamless.
        """
        track_bytes = self._track_bytes
        track, in_track_bytes = divmod(byte_offset, track_bytes)
        cylinder, head = divmod(track, self._platters)
        in_track = in_track_bytes / track_bytes
        skew = (
            cylinder * self._cylinder_skew
            + (cylinder * (self._platters - 1) + head) * self._head_switch_skew
        )
        return (in_track + skew) % 1.0

    # -- timing -------------------------------------------------------------

    def transfer_time(self, start_byte: int, n_bytes: int) -> float:
        """Media transfer time for a contiguous on-disk span.

        One revolution's worth of time per track's worth of bytes, plus a
        single-track seek per cylinder crossing and a head switch per
        track crossing within a cylinder.  O(1) in the span length.

        Raises:
            InvalidRequestError: on a negative start or a non-positive
                length (a zero-length span would place its "last byte"
                before its first and yield negative track crossings).
        """
        if start_byte < 0:
            raise InvalidRequestError(f"negative start byte: {start_byte}")
        if n_bytes <= 0:
            raise InvalidRequestError(f"non-positive transfer length: {n_bytes}")
        track_bytes = self._track_bytes
        platters = self._platters
        first_track = start_byte // track_bytes
        last_track = (start_byte + n_bytes - 1) // track_bytes
        track_crossings = last_track - first_track
        cylinder_crossings = last_track // platters - first_track // platters
        head_switches = track_crossings - cylinder_crossings
        return (
            (n_bytes / track_bytes) * self._rotation_ms
            + cylinder_crossings * self._seek_one
            + head_switches * self._head_switch_ms
        )

    def service(self, request: DiskRequest, start_time: float) -> ServiceBreakdown:
        """Serve a request beginning at ``start_time``; move the head.

        Returns the seek / rotation / transfer breakdown.  The head is left
        at the cylinder of the last byte transferred.
        """
        start_byte = request.start_byte
        end_byte = request.end_byte
        if start_byte < 0:
            raise InvalidRequestError(f"negative start byte: {start_byte}")
        if end_byte > self._capacity_bytes:
            raise InvalidRequestError(
                f"request [{start_byte}, {end_byte}) exceeds "
                f"drive capacity {self._capacity_bytes}"
            )
        cylinder_bytes = self._cylinder_bytes
        target_cylinder = start_byte // cylinder_bytes
        distance = (
            target_cylinder - self.head_cylinder
            if target_cylinder >= self.head_cylinder
            else self.head_cylinder - target_cylinder
        )
        seek = self._seek_table[distance]
        arrival = start_time + seek
        target_angle = self.start_angle(start_byte)
        rotation_fraction = (
            target_angle - (arrival / self._rotation_ms) % 1.0
        ) % 1.0
        if rotation_fraction > 1.0 - 1e-9:
            # Floating point landed an epsilon past the target: a strictly
            # sequential continuation must not pay a phantom revolution.
            rotation_fraction = 0.0
        rotation_delay = rotation_fraction * self._rotation_ms
        transfer = self.transfer_time(start_byte, request.n_bytes)
        self.head_cylinder = (end_byte - 1) // cylinder_bytes
        return ServiceBreakdown(seek, rotation_delay, transfer)

    def retry_service(self, breakdown: ServiceBreakdown) -> ServiceBreakdown:
        """Service cost including one soft-error retry (fault injection).

        A failed read is noticed as the transfer completes; the head stays
        put, the target sector comes around again after one full
        revolution, and the media transfer repeats.  No extra seek.
        """
        return ServiceBreakdown(
            breakdown.seek_ms,
            breakdown.rotation_ms + self._rotation_ms,
            breakdown.transfer_ms * 2.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiskDrive {self.geometry.name} head@{self.head_cylinder}>"
