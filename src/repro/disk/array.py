"""Disk organizations: the linear address space the allocators see.

"The disk system is designed to allow multiple heterogeneous devices"
configured as an array, mirrored pair, RAID, or parity-striped set.  This
module holds the common interface plus the two parity-free organizations:

* :class:`StripedArray` — the configuration behind every result in the
  paper: data striped round-robin across N identical drives in *stripe
  unit* chunks; the allocators address the array in *disk units*.
* :class:`ConcatArray` — simple concatenation (files live on one disk),
  the data layout underneath Gray/Walker parity striping.

Two parameters characterize a striped layout, exactly as in §2.1:

* **stripe unit** — bytes allocated on one disk before moving to the next;
  must be at least the sector size of every disk.
* **disk unit** — the minimum unit of transfer between disk and memory:
  the smaller of the smallest file-system block size and the stripe size.
  Disks are *addressed* in disk units.
"""

from __future__ import annotations

import abc

from ..errors import ConfigurationError, DataUnavailableError, InvalidRequestError
from ..sim.engine import Simulator, Waitable, join
from .geometry import DiskGeometry
from .queue import QueuedDrive
from .request import DiskRequest, IoKind


class DiskSystem(abc.ABC):
    """Common interface of every disk organization.

    A disk system exposes a linear address space measured in disk units;
    :meth:`transfer` maps a linear span onto per-drive requests and returns
    a waitable that succeeds when the whole span has moved.
    """

    def __init__(self, sim: Simulator, disk_unit_bytes: int) -> None:
        if disk_unit_bytes <= 0:
            raise ConfigurationError("disk unit must be positive")
        self.sim = sim
        self.disk_unit_bytes = disk_unit_bytes
        self.drives: list[QueuedDrive] = []
        #: Attached by :class:`~repro.fault.injector.FaultInjector`; None
        #: for every fault-free simulation.
        self.fault_injector = None

    # -- geometry -----------------------------------------------------------

    @property
    @abc.abstractmethod
    def capacity_bytes(self) -> int:
        """Usable (data) capacity in bytes."""

    @property
    def capacity_units(self) -> int:
        """Usable capacity in disk units (the allocators' address space)."""
        return self.capacity_bytes // self.disk_unit_bytes

    @property
    def max_bandwidth_bytes_per_ms(self) -> float:
        """Peak sustained sequential bandwidth of the whole system.

        All throughput results are normalized against this (the paper's
        "percent of maximum available capacity").
        """
        return sum(d.geometry.sustained_bytes_per_ms for d in self.drives)

    # -- I/O -----------------------------------------------------------------

    @abc.abstractmethod
    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        """Move ``n_units`` disk units starting at linear ``start_unit``."""

    def _check_span(self, start_unit: int, n_units: int) -> None:
        if n_units <= 0:
            raise InvalidRequestError(f"non-positive transfer: {n_units}")
        if start_unit < 0 or start_unit + n_units > self.capacity_units:
            raise InvalidRequestError(
                f"transfer [{start_unit}, {start_unit + n_units}) outside "
                f"capacity {self.capacity_units} units"
            )

    # -- faults ----------------------------------------------------------------

    @staticmethod
    def _drive_available(drive: QueuedDrive) -> bool:
        """True unless a fault injector has taken the drive offline."""
        state = drive.fault_state
        return state is None or state.available

    @property
    def degraded(self) -> bool:
        """True while any drive is failed or rebuilding."""
        return any(not self._drive_available(d) for d in self.drives)

    def start_rebuild(self, drive_index: int, rows_per_chunk: int):
        """A generator that streams the failed drive's contents back.

        Returns ``None`` when the organization has no redundancy to
        rebuild from (the base case): the replacement drive simply comes
        online, its contents restored out of band.  Redundant
        organizations override this with a process that reads surviving
        copies/parity and writes the replacement, chunk by chunk through
        the ordinary queues — which is exactly how rebuild traffic
        competes with foreground I/O for bandwidth.
        """
        return None

    # -- statistics ------------------------------------------------------------

    @property
    def total_bytes_moved(self) -> int:
        """Bytes transferred across all drives since construction."""
        return sum(d.bytes_moved for d in self.drives)


class StripedArray(DiskSystem):
    """Round-robin striping across N identical drives.

    Linear stripe ``s`` lives on drive ``s % N`` at per-drive offset
    ``(s // N) * stripe_unit``, so a span of at least N consecutive stripes
    touches every drive with one contiguous per-drive run — the property
    the read-optimized policies exploit to "force striping" and reach the
    array's aggregate bandwidth with a single logical request.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        n_disks: int,
        stripe_unit_bytes: int,
        disk_unit_bytes: int,
        queue_discipline: str = "fcfs",
    ) -> None:
        super().__init__(sim, disk_unit_bytes)
        if n_disks <= 0:
            raise ConfigurationError("need at least one disk")
        if stripe_unit_bytes <= 0 or stripe_unit_bytes % disk_unit_bytes:
            raise ConfigurationError(
                "stripe unit must be a positive multiple of the disk unit"
            )
        per_drive = geometry.capacity_bytes
        if per_drive % stripe_unit_bytes:
            # Round each drive down to whole stripes; the sliver is unusable.
            per_drive -= per_drive % stripe_unit_bytes
        self.geometry = geometry
        self.n_disks = n_disks
        self.stripe_unit_bytes = stripe_unit_bytes
        self._per_drive_bytes = per_drive
        self.drives = [
            QueuedDrive(sim, geometry, discipline=queue_discipline, index=i)
            for i in range(n_disks)
        ]

    @property
    def capacity_bytes(self) -> int:
        return self._per_drive_bytes * self.n_disks

    def locate_unit(self, unit: int) -> tuple[int, int]:
        """Map a linear disk-unit address to ``(drive index, drive byte)``."""
        byte = unit * self.disk_unit_bytes
        stripe, offset = divmod(byte, self.stripe_unit_bytes)
        drive = stripe % self.n_disks
        row = stripe // self.n_disks
        return drive, row * self.stripe_unit_bytes + offset

    def split(self, start_unit: int, n_units: int) -> list[tuple[int, int, int]]:
        """Split a linear span into per-drive byte runs.

        Returns ``(drive index, drive byte, length)`` triples, drive-major
        (ascending drive, then ascending byte), with each drive's runs
        merged where the span wraps back onto the next row contiguously.
        Chunks arrive in ascending byte order, so merging is a tail check;
        the single-stripe-unit spans that dominate small-request
        workloads short-circuit to one triple.
        """
        su = self.stripe_unit_bytes
        n_disks = self.n_disks
        stripe, offset = divmod(start_unit * self.disk_unit_bytes, su)
        remaining = n_units * self.disk_unit_bytes
        if offset + remaining <= su:
            row, drive_index = divmod(stripe, n_disks)
            return [(drive_index, row * su + offset, remaining)]
        per_drive: list[list[tuple[int, int]] | None] = [None] * n_disks
        while remaining > 0:
            chunk = su - offset
            if chunk > remaining:
                chunk = remaining
            row, drive_index = divmod(stripe, n_disks)
            start_byte = row * su + offset
            runs = per_drive[drive_index]
            if runs is None:
                per_drive[drive_index] = [(start_byte, chunk)]
            else:
                last_start, last_length = runs[-1]
                if last_start + last_length == start_byte:
                    runs[-1] = (last_start, start_byte + chunk - last_start)
                else:
                    runs.append((start_byte, chunk))
            remaining -= chunk
            stripe += 1
            offset = 0
        return [
            (drive_index, start_byte, length)
            for drive_index, runs in enumerate(per_drive)
            if runs is not None
            for start_byte, length in runs
        ]

    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        """Split the span, validate it, submit one request per run.

        Every run is checked against offline drives before anything is
        submitted, so a span that touches a failed drive fails whole
        instead of leaving sibling requests queued.  Submission is
        drive-major, in :meth:`split` order.
        """
        self._check_span(start_unit, n_units)
        runs = self.split(start_unit, n_units)
        drives = self.drives
        for drive_index, _, _ in runs:
            state = drives[drive_index].fault_state
            if state is not None and not state.available:
                # No redundancy: data on a failed drive is simply gone
                # until the replacement arrives.  The workload layer
                # treats this like any other transient operation failure.
                raise DataUnavailableError(
                    f"drive {drive_index} is offline and the striped array "
                    f"has no redundancy to mask it"
                )
        return join(
            [
                drives[drive_index].submit(DiskRequest(kind, start_byte, length))
                for drive_index, start_byte, length in runs
            ]
        )


class ConcatArray(DiskSystem):
    """Concatenation (JBOD): linear space is disk 0, then disk 1, ...

    Used by the parity-striped organization, where "files are allocated to
    single disks" and only the parity is spread.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        n_disks: int,
        disk_unit_bytes: int,
    ) -> None:
        super().__init__(sim, disk_unit_bytes)
        if n_disks <= 0:
            raise ConfigurationError("need at least one disk")
        per_drive = geometry.capacity_bytes
        per_drive -= per_drive % disk_unit_bytes
        self.geometry = geometry
        self.n_disks = n_disks
        self._per_drive_bytes = per_drive
        self.drives = [
            QueuedDrive(sim, geometry, index=i)
            for i in range(n_disks)
        ]

    @property
    def capacity_bytes(self) -> int:
        return self._per_drive_bytes * self.n_disks

    def locate_unit(self, unit: int) -> tuple[int, int]:
        """Map a linear disk-unit address to ``(drive index, drive byte)``."""
        byte = unit * self.disk_unit_bytes
        return byte // self._per_drive_bytes, byte % self._per_drive_bytes

    def transfer(self, kind: IoKind, start_unit: int, n_units: int) -> Waitable:
        self._check_span(start_unit, n_units)
        byte = start_unit * self.disk_unit_bytes
        remaining = n_units * self.disk_unit_bytes
        completions: list[Waitable] = []
        while remaining > 0:
            drive_index, drive_byte = byte // self._per_drive_bytes, byte % self._per_drive_bytes
            chunk = min(self._per_drive_bytes - drive_byte, remaining)
            request = DiskRequest(kind, drive_byte, chunk)
            completions.append(self.drives[drive_index].submit(request))
            byte += chunk
            remaining -= chunk
        return join(completions)
