"""Redundant disk organizations: mirroring, RAID-5, parity striping.

§2.1 lists four configurations the disk system supports.  The paper's
results "assume no parity information ... and merely stripe the data", but
the other three organizations are part of the system and drive the
future-work experiment ("the impact of a RAID in the underlying disk
system will reduce the small write performance"):

* :class:`MirroredArray` — every write goes to both copies; reads pick the
  copy with the shorter queue.
* :class:`Raid5Array` — rotating parity (Patterson et al. 1988); small
  writes pay the classic read-modify-write (old data + old parity read,
  then data + parity written), full-stripe writes compute parity for free.
* :class:`ParityStripedArray` — Gray & Walker 1990: data is *not* striped
  (files live on single disks, preserving per-disk locality) but each
  write also updates parity on a rotating partner disk.

Degraded mode (:mod:`repro.fault`): when an injected fault takes a drive
offline, the mirror serves reads from the surviving copy and the RAID-5
reconstructs by reading every surviving drive in the row; writes skip the
dead drive (mirror) or maintain parity so the data is recoverable
(RAID-5).  When a replacement arrives, :meth:`DiskSystem.start_rebuild`
streams the contents back through the ordinary request queues, so rebuild
traffic competes with foreground I/O exactly as it does on real arrays.
A second concurrent failure raises
:class:`~repro.errors.DataUnavailableError` — redundancy is exhausted.
"""

from __future__ import annotations

from ..errors import ConfigurationError, DataUnavailableError
from ..sim.engine import Simulator, Waitable, join
from .array import ConcatArray, DiskSystem, StripedArray
from .geometry import DiskGeometry
from .request import DiskRequest, IoKind


class MirroredArray(DiskSystem):
    """Two identical striped arrays holding the same data.

    Capacity and the allocator-visible address space are one copy's worth.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        n_disks: int,
        stripe_unit_bytes: int,
        disk_unit_bytes: int,
    ) -> None:
        super().__init__(sim, disk_unit_bytes)
        self.primary = StripedArray(sim, geometry, n_disks, stripe_unit_bytes, disk_unit_bytes)
        self.secondary = StripedArray(sim, geometry, n_disks, stripe_unit_bytes, disk_unit_bytes)
        self.drives = self.primary.drives + self.secondary.drives
        # Renumber the flat list so every drive gets a distinct trace
        # lane (each StripedArray numbered its own drives from zero).
        for i, drive in enumerate(self.drives):
            drive.index = i
        self._read_toggle = 0

    @property
    def capacity_bytes(self) -> int:
        return self.primary.capacity_bytes

    @property
    def max_bandwidth_bytes_per_ms(self) -> float:
        """Reads can be served by either copy, so both halves count."""
        return (
            self.primary.max_bandwidth_bytes_per_ms
            + self.secondary.max_bandwidth_bytes_per_ms
        )

    def _side_can_serve(self, side: StripedArray, start_unit: int, n_units: int) -> bool:
        """True when every drive the span touches on ``side`` is online."""
        drives = side.drives
        return all(
            self._drive_available(drives[drive_index])
            for drive_index, _, _ in side.split(start_unit, n_units)
        )

    @staticmethod
    def _partial_transfer(
        side: StripedArray, kind: IoKind, start_unit: int, n_units: int
    ) -> list[Waitable]:
        """Submit a span to ``side``, silently skipping offline drives.

        Used for writes while one copy is degraded: the surviving copy
        takes the write, the dead drive's share is simply lost until the
        rebuild re-copies it from the peer.
        """
        drives = side.drives
        return [
            drives[drive_index].submit(DiskRequest(kind, start_byte, length))
            for drive_index, start_byte, length in side.split(start_unit, n_units)
            if DiskSystem._drive_available(drives[drive_index])
        ]

    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        self._check_span(start_unit, n_units)
        if kind is IoKind.WRITE:
            if not self.degraded:
                return join(
                    [
                        self.primary.transfer(kind, start_unit, n_units),
                        self.secondary.transfer(kind, start_unit, n_units),
                    ]
                )
            # Degraded write: each copy takes the runs its online drives
            # can absorb.  Both copies dropping the same span would lose
            # data — that is the double-failure case.
            if not (
                self._side_can_serve(self.primary, start_unit, n_units)
                or self._side_can_serve(self.secondary, start_unit, n_units)
            ):
                raise DataUnavailableError(
                    "both mirror copies have offline drives in the written "
                    "span; redundancy is exhausted"
                )
            completions = self._partial_transfer(
                self.primary, kind, start_unit, n_units
            )
            completions.extend(
                self._partial_transfer(self.secondary, kind, start_unit, n_units)
            )
            return join(completions)
        # Reads alternate between copies; with equal geometry this halves
        # each copy's read queue without tracking queue depths per span.
        side = self.primary if self._read_toggle == 0 else self.secondary
        other = self.secondary if self._read_toggle == 0 else self.primary
        self._read_toggle ^= 1
        # With every drive online either copy can serve; only a degraded
        # array needs the per-span check.
        if self.degraded and not self._side_can_serve(side, start_unit, n_units):
            # Degraded read: fall over to the surviving copy.
            side = other
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.incr("disk.failover_reads")
            if not self._side_can_serve(side, start_unit, n_units):
                raise DataUnavailableError(
                    "both mirror copies have offline drives in the read "
                    "span; redundancy is exhausted"
                )
        return side.transfer(kind, start_unit, n_units)

    def start_rebuild(self, drive_index: int, rows_per_chunk: int):
        """Re-copy a replaced drive from its mirror peer, chunk by chunk.

        Drive ``i`` of the primary copy mirrors drive ``i`` of the
        secondary (indices offset by ``n_disks`` in the flat list), so
        rebuild is a straight disk-to-disk copy through both queues.
        """
        n = len(self.primary.drives)
        peer = self.drives[(drive_index + n) % (2 * n)]
        target = self.drives[drive_index]
        chunk = max(1, rows_per_chunk) * self.primary.stripe_unit_bytes
        per_drive = self.primary._per_drive_bytes

        def rebuild():
            position = 0
            while position < per_drive:
                length = min(chunk, per_drive - position)
                yield peer.submit(DiskRequest(IoKind.READ, position, length))
                yield target.submit(DiskRequest(IoKind.WRITE, position, length))
                if self.fault_injector is not None:
                    self.fault_injector.note_rebuild_bytes(2 * length)
                position += length

        return rebuild()


class Raid5Array(DiskSystem):
    """N+1 drives with rotating parity (left-symmetric).

    The data address space is striped over the N data positions of each
    stripe row; the parity position rotates across drives row by row.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        n_disks: int,
        stripe_unit_bytes: int,
        disk_unit_bytes: int,
    ) -> None:
        super().__init__(sim, disk_unit_bytes)
        if n_disks < 3:
            raise ConfigurationError("RAID-5 needs at least 3 drives")
        if stripe_unit_bytes % disk_unit_bytes:
            raise ConfigurationError(
                "stripe unit must be a multiple of the disk unit"
            )
        per_drive = geometry.capacity_bytes
        per_drive -= per_drive % stripe_unit_bytes
        self.geometry = geometry
        self.n_disks = n_disks
        self.stripe_unit_bytes = stripe_unit_bytes
        self._per_drive_bytes = per_drive
        self._rows = per_drive // stripe_unit_bytes
        from .queue import QueuedDrive  # local import avoids a cycle at module load

        self.drives = [
            QueuedDrive(sim, geometry, index=i)
            for i in range(n_disks)
        ]

    @property
    def capacity_bytes(self) -> int:
        """Data capacity: one drive per row is parity."""
        return self._per_drive_bytes * (self.n_disks - 1)

    @property
    def max_bandwidth_bytes_per_ms(self) -> float:
        """Sequential reads use the data drives of each row: N-1 of N."""
        full = sum(d.geometry.sustained_bytes_per_ms for d in self.drives)
        return full * (self.n_disks - 1) / self.n_disks

    def locate_unit(self, unit: int) -> tuple[int, int]:
        """Map a data disk-unit address to ``(drive index, drive byte)``."""
        byte = unit * self.disk_unit_bytes
        data_stripe, offset = divmod(byte, self.stripe_unit_bytes)
        row = data_stripe // (self.n_disks - 1)
        position = data_stripe % (self.n_disks - 1)
        parity_drive = row % self.n_disks
        # Data positions count around the row, skipping the parity drive.
        drive = position if position < parity_drive else position + 1
        return drive, row * self.stripe_unit_bytes + offset

    def _parity_drive_of_row(self, row: int) -> int:
        return row % self.n_disks

    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        self._check_span(start_unit, n_units)
        su = self.stripe_unit_bytes
        byte = start_unit * self.disk_unit_bytes
        remaining = n_units * self.disk_unit_bytes
        data_per_row = su * (self.n_disks - 1)

        # Plan the whole span before submitting anything, so a span that
        # turns out to be unserviceable (two drives down in one row) fails
        # whole instead of leaving sibling requests queued.
        plan: list[tuple[int, DiskRequest]] = []
        while remaining > 0:
            row = byte // data_per_row
            row_offset = byte % data_per_row
            chunk = min(data_per_row - row_offset, remaining)
            self._plan_in_row(plan, kind, row, row_offset, chunk)
            byte += chunk
            remaining -= chunk
        return join(
            [self.drives[drive].submit(request) for drive, request in plan]
        )

    def _others_in_row(self, excluded: int) -> list[int]:
        """Every drive index except ``excluded``; raises if one is offline.

        Reconstruction needs *all* surviving drives of the row — a second
        offline drive means the data is unrecoverable.
        """
        others: list[int] = []
        for i in range(self.n_disks):
            if i == excluded:
                continue
            if not self._drive_available(self.drives[i]):
                raise DataUnavailableError(
                    f"drives {excluded} and {i} are both offline; RAID-5 "
                    f"survives only a single failure"
                )
            others.append(i)
        return others

    def _plan_in_row(
        self,
        plan: list[tuple[int, DiskRequest]],
        kind: IoKind,
        row: int,
        row_offset: int,
        n_bytes: int,
    ) -> None:
        """Append the drive requests for a span within one stripe row."""
        su = self.stripe_unit_bytes
        parity = self._parity_drive_of_row(row)
        row_byte = row * su
        parity_ok = self._drive_available(self.drives[parity])
        full_row_write = kind is IoKind.WRITE and row_offset == 0 and n_bytes == su * (
            self.n_disks - 1
        )
        offset = row_offset
        remaining = n_bytes
        while remaining > 0:
            position, in_unit = divmod(offset, su)
            drive = position if position < parity else position + 1
            chunk = min(su - in_unit, remaining)
            request_start = row_byte + in_unit
            drive_ok = self._drive_available(self.drives[drive])
            if kind is IoKind.READ:
                if drive_ok:
                    plan.append(
                        (drive, DiskRequest(kind, request_start, chunk))
                    )
                else:
                    # Degraded read: the chunk is the XOR of the same span
                    # on every surviving drive of the row (data + parity),
                    # so reconstruction costs N-1 reads in parallel.
                    metrics = self.sim.metrics
                    if metrics is not None:
                        metrics.incr("disk.reconstructed_reads")
                    for other in self._others_in_row(drive):
                        plan.append(
                            (other, DiskRequest(IoKind.READ, request_start, chunk))
                        )
            elif full_row_write:
                if drive_ok:
                    plan.append(
                        (drive, DiskRequest(kind, request_start, chunk))
                    )
                elif not parity_ok:
                    raise DataUnavailableError(
                        f"drives {drive} and {parity} are both offline; "
                        f"RAID-5 survives only a single failure"
                    )
                # One dead data drive in a full-row write is fine: its
                # chunk is implied by the written parity.
            elif not drive_ok:
                # Degraded small write, data drive dead: new parity is
                # computed from the surviving chunks (reconstruct-write) —
                # read the span from every survivor, then write parity.
                others = self._others_in_row(drive)
                for other in others:
                    if other != parity:
                        plan.append(
                            (other, DiskRequest(IoKind.READ, request_start, chunk))
                        )
                plan.append(
                    (parity, DiskRequest(IoKind.WRITE, request_start, chunk))
                )
            elif not parity_ok:
                # Parity drive dead: the data write proceeds unprotected
                # (parity is recomputed wholesale when the drive rebuilds).
                plan.append(
                    (drive, DiskRequest(IoKind.WRITE, request_start, chunk))
                )
            else:
                # Read-modify-write: read old data, read old parity, write
                # new data, write new parity.  The reads queue first; the
                # writes land behind them on the same drives, which models
                # the two serialized rounds of the classic small-write.
                plan.append(
                    (drive, DiskRequest(IoKind.READ, request_start, chunk))
                )
                plan.append(
                    (parity, DiskRequest(IoKind.READ, request_start, chunk))
                )
                plan.append(
                    (drive, DiskRequest(IoKind.WRITE, request_start, chunk))
                )
                plan.append(
                    (parity, DiskRequest(IoKind.WRITE, request_start, chunk))
                )
            offset += chunk
            remaining -= chunk
        if full_row_write and parity_ok:
            # Parity computed in memory, written alongside the data.
            plan.append((parity, DiskRequest(IoKind.WRITE, row_byte, su)))

    def start_rebuild(self, drive_index: int, rows_per_chunk: int):
        """Rebuild a replaced drive from the survivors, chunk by chunk.

        Each chunk XORs the same byte span of every surviving drive
        (reads issued in parallel, like a degraded read) and writes the
        result to the replacement.  Rebuild traffic flows through the
        ordinary queues, so it competes with foreground I/O.
        """
        target = self.drives[drive_index]
        survivors = [
            d for i, d in enumerate(self.drives) if i != drive_index
        ]
        chunk = max(1, rows_per_chunk) * self.stripe_unit_bytes
        per_drive = self._per_drive_bytes

        def rebuild():
            position = 0
            while position < per_drive:
                length = min(chunk, per_drive - position)
                yield join(
                    [
                        d.submit(DiskRequest(IoKind.READ, position, length))
                        for d in survivors
                    ]
                )
                yield target.submit(DiskRequest(IoKind.WRITE, position, length))
                if self.fault_injector is not None:
                    self.fault_injector.note_rebuild_bytes(
                        (len(survivors) + 1) * length
                    )
                position += length

        return rebuild()


class ParityStripedArray(DiskSystem):
    """Gray & Walker parity striping over a concatenated data layout.

    Data placement is identical to :class:`ConcatArray` (whole files on
    single disks); each write additionally updates a parity extent on the
    next drive over, modelled as a read-modify-write pair there.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        n_disks: int,
        disk_unit_bytes: int,
    ) -> None:
        super().__init__(sim, disk_unit_bytes)
        if n_disks < 2:
            raise ConfigurationError("parity striping needs at least 2 drives")
        self._data = ConcatArray(sim, geometry, n_disks, disk_unit_bytes)
        self.n_disks = n_disks
        self.drives = self._data.drives
        # One drive's worth of space across the set is parity.
        self._data_fraction = (n_disks - 1) / n_disks

    @property
    def capacity_bytes(self) -> int:
        return int(self._data.capacity_bytes * self._data_fraction)

    @property
    def max_bandwidth_bytes_per_ms(self) -> float:
        return (
            sum(d.geometry.sustained_bytes_per_ms for d in self.drives)
            * self._data_fraction
        )

    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        self._check_span(start_unit, n_units)
        completions = [self._data.transfer(kind, start_unit, n_units)]
        if kind is IoKind.WRITE:
            # Parity lives on the neighbouring drive at the mirrored offset.
            drive_index, drive_byte = self._data.locate_unit(start_unit)
            parity_drive = (drive_index + 1) % self.n_disks
            per_drive = self._data._per_drive_bytes
            n_bytes = min(n_units * self.disk_unit_bytes, per_drive)
            parity_byte = max(0, min(drive_byte, per_drive - n_bytes))
            completions.append(
                self.drives[parity_drive].submit(
                    DiskRequest(IoKind.READ, parity_byte, n_bytes)
                )
            )
            completions.append(
                self.drives[parity_drive].submit(
                    DiskRequest(IoKind.WRITE, parity_byte, n_bytes)
                )
            )
        return join(completions)
