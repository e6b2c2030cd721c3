"""The file system: allocation policy + disk system + files.

:class:`FileSystem` composes an :class:`~repro.alloc.base.Allocator`
(placement) with a :class:`~repro.disk.array.DiskSystem` (timing) and
exposes the operations the workloads perform: create, read, write, extend,
truncate, delete, and the whole-file read/write of the sequential test.

I/O methods are generators meant to run inside simulation processes::

    def user():
        n = yield from fs.read(handle, offset_bytes=0, n_bytes=8192)

Timed data transfers go through the disk system; allocation itself is
instantaneous (the policies' CPU cost is not what the paper measures).
Throughput is metered below this layer: each completed drive request
credits the simulator's :attr:`~repro.sim.engine.Simulator.meter`.
"""

from __future__ import annotations

import itertools

from ..alloc.base import Allocator
from ..alloc.metrics import FragmentationReport, measure_fragmentation
from ..disk.array import DiskSystem
from ..disk.request import IoKind
from ..errors import DiskFullError, FileSystemError
from ..obs.tracer import TID_FS
from ..sim.engine import Simulator, join
from ..units import ceil_div
from .extmap import ExtentMap


class FsFile:
    """An open file: logical length plus its offset lookup.

    Compares (and hashes) by identity, deliberately: an open file is a
    stateful resource, not a value.  The workload keeps thousands of
    these in population lists, and the former dataclass-generated
    ``__eq__`` deep-compared extent maps across whole
    populations on every ``list.remove`` — the O(n²) churn this layer's
    hot-path rework removed.  ``fs_id`` is unique per file system, so no
    two distinct live files ever compared equal anyway.

    Attributes:
        fs_id: file-system-level id (distinct from the allocator's).
        handle: the allocator's record of the file's extents.
        extmap: offset lookup over ``handle``; built once at creation,
            it reads the handle's lists directly and is never rebuilt.
        length_bytes: logical file length.
        cursor_bytes: per-file sequential position (used by burst-style
            workloads that read/write forward through the file).
        tag: free-form label (the workload stores the file-type name).
    """

    __slots__ = (
        "fs_id", "handle", "extmap", "length_bytes", "cursor_bytes", "tag",
    )

    def __init__(
        self,
        fs_id: int,
        handle: object,
        extmap: ExtentMap,
        length_bytes: int = 0,
        cursor_bytes: int = 0,
        tag: str = "",
    ) -> None:
        self.fs_id = fs_id
        self.handle = handle
        self.extmap = extmap
        self.length_bytes = length_bytes
        self.cursor_bytes = cursor_bytes
        self.tag = tag

    @property
    def allocated_units(self) -> int:
        """Data units allocated to this file."""
        return self.handle.allocated_units

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FsFile {self.fs_id} tag={self.tag!r} "
            f"len={self.length_bytes} alloc={self.handle.allocated_units}u>"
        )


class FileSystem:
    """Files on an allocation policy on a disk system."""

    def __init__(
        self, sim: Simulator, disk: DiskSystem, allocator: Allocator
    ) -> None:
        if allocator.capacity_units > disk.capacity_units:
            raise FileSystemError(
                f"allocator address space {allocator.capacity_units} exceeds "
                f"disk capacity {disk.capacity_units}"
            )
        self.sim = sim
        self.disk = disk
        self.allocator = allocator
        self.unit_bytes = disk.disk_unit_bytes
        self.files: dict[int, FsFile] = {}
        self._ids = itertools.count(1)
        self.bytes_read = 0
        self.bytes_written = 0

    # -- lifecycle (allocation only; no simulated time) -------------------------

    def create(self, size_hint_bytes: int = 0, tag: str = "") -> FsFile:
        """Create an empty file (descriptor allocated, no data).

        Raises:
            DiskFullError: no space for the descriptor.
        """
        hint_units = ceil_div(size_hint_bytes, self.unit_bytes) if size_hint_bytes else 0
        handle = self.allocator.create(size_hint_units=hint_units)
        fs_file = FsFile(
            fs_id=next(self._ids),
            handle=handle,
            extmap=ExtentMap(handle),
            tag=tag,
        )
        self.files[fs_file.fs_id] = fs_file
        return fs_file

    def allocate_to(
        self, fs_file: FsFile, length_bytes: int, step_bytes: int | None = None
    ) -> None:
        """Instantly grow a file to ``length_bytes`` (initialization phase).

        The paper creates the initial population before the clock starts:
        "Allocation requests are made until the allocation length of the
        file is greater than or equal to this size."  ``step_bytes``
        bounds the size of each individual allocation request — requests
        arrive in workload-sized chunks, which matters to policies whose
        placement depends on request history (the buddy system doubles the
        file on *each* request).  No I/O is simulated.

        Raises:
            DiskFullError: the remaining space cannot hold the file; the
                allocation done so far is kept (the file is just shorter),
                matching the simulator's disk-full logging semantics.
        """
        self._check_live(fs_file)
        unit = self.unit_bytes
        handle = fs_file.handle
        missing = ceil_div(length_bytes, unit) - handle.allocated_units
        if missing > 0:
            step_units = ceil_div(step_bytes, unit) if step_bytes else None
            try:
                self.allocator.extend(handle, missing, step_units)
            except DiskFullError:
                covered = handle.allocated_units * unit
                fs_file.length_bytes = max(
                    fs_file.length_bytes, min(length_bytes, covered)
                )
                raise
        fs_file.length_bytes = max(fs_file.length_bytes, length_bytes)

    def delete(self, fs_file: FsFile) -> None:
        """Delete a file; frees all its space.

        Deallocation is metadata-only (every policy pays the same one-unit
        descriptor, so descriptor I/O cancels out of the comparison and is
        not simulated).
        """
        self._check_live(fs_file)
        self.allocator.delete(fs_file.handle)
        del self.files[fs_file.fs_id]
        fs_file.length_bytes = 0

    def truncate(self, fs_file: FsFile, n_bytes: int) -> int:
        """Shorten the file by ``n_bytes``; frees whole trailing blocks.

        Pure metadata (no timed I/O).  Returns bytes actually removed from
        the logical length.
        """
        self._check_live(fs_file)
        if n_bytes < 0:
            raise FileSystemError(f"negative truncate: {n_bytes}")
        removed = min(n_bytes, fs_file.length_bytes)
        fs_file.length_bytes -= removed
        keep_units = ceil_div(fs_file.length_bytes, self.unit_bytes)
        excess = fs_file.handle.allocated_units - keep_units
        if excess > 0:
            self.allocator.truncate(fs_file.handle, excess)
        fs_file.cursor_bytes = min(fs_file.cursor_bytes, fs_file.length_bytes)
        return removed

    def reorganize(self, max_extents: int = 3) -> int:
        """Run the allocator's background reallocator, if it has one.

        Koch's DTSS system runs this "once every day"; the paper's
        measurements exclude it, so it is an extension here.  Policies
        without a ``reallocate`` method return 0.  The reallocator reshapes
        each handle's record in place, so the files' extent maps read the
        new extents with no rebuild; no I/O is simulated (the reallocator
        runs in the paper's off-peak hours).
        """
        reallocate = getattr(self.allocator, "reallocate", None)
        if reallocate is None:
            return 0
        used = {
            fs_file.handle.file_id: ceil_div(fs_file.length_bytes, self.unit_bytes)
            for fs_file in self.files.values()
        }
        return reallocate(used, max_extents=max_extents)

    # -- timed I/O (generators) ----------------------------------------------

    def read(self, fs_file: FsFile, offset_bytes: int, n_bytes: int):
        """Read a byte range (clamped to the file).  Returns bytes read."""
        if fs_file.fs_id not in self.files:
            raise FileSystemError(f"file {fs_file.fs_id} is not open")
        if offset_bytes < 0 or n_bytes < 0:
            raise FileSystemError("negative read offset or size")
        end = min(offset_bytes + n_bytes, fs_file.length_bytes)
        if end <= offset_bytes:
            return 0
        actual = end - offset_bytes
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "fs.read",
                "fs",
                tracer.context,
                TID_FS,
                {"file": fs_file.fs_id, "bytes": actual},
            )
            tracer.context = span.span_id
        try:
            unit = self.unit_bytes
            first_unit = offset_bytes // unit
            transfer = self.disk.transfer
            waitables = [
                transfer(IoKind.READ, start, length)
                for start, length in fs_file.extmap.runs(
                    first_unit, (end - 1) // unit - first_unit + 1
                )
            ]
            if span is not None:
                # The ambient span context is only valid within one
                # synchronous descent: reset it before suspending, so no
                # unrelated callback adopts this span (see repro.obs.tracer).
                tracer.context = 0
            yield join(waitables)
        finally:
            if span is not None:
                tracer.end(span)
                tracer.context = span.parent_id
        self.bytes_read += actual
        return actual

    def write(self, fs_file: FsFile, offset_bytes: int, n_bytes: int):
        """Write a byte range, growing the file when it extends past EOF.

        Returns bytes written.
        """
        if fs_file.fs_id not in self.files:
            raise FileSystemError(f"file {fs_file.fs_id} is not open")
        if offset_bytes < 0 or n_bytes <= 0:
            raise FileSystemError("bad write offset or size")
        if offset_bytes > fs_file.length_bytes:
            offset_bytes = fs_file.length_bytes  # no holes: append instead
        end = offset_bytes + n_bytes
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "fs.write",
                "fs",
                tracer.context,
                TID_FS,
                {"file": fs_file.fs_id, "bytes": n_bytes},
            )
            tracer.context = span.span_id
        try:
            if end > fs_file.length_bytes:
                self._grow_to(fs_file, end)
            unit = self.unit_bytes
            first_unit = offset_bytes // unit
            transfer = self.disk.transfer
            waitables = [
                transfer(IoKind.WRITE, start, length)
                for start, length in fs_file.extmap.runs(
                    first_unit, (end - 1) // unit - first_unit + 1
                )
            ]
            if span is not None:
                tracer.context = 0  # suspending: see read()
            yield join(waitables)
        finally:
            if span is not None:
                tracer.end(span)
                tracer.context = span.parent_id
        self.bytes_written += n_bytes
        return n_bytes

    def extend(self, fs_file: FsFile, n_bytes: int):
        """Append ``n_bytes`` (allocate + write).  Returns bytes appended."""
        self._check_live(fs_file)
        if n_bytes <= 0:
            raise FileSystemError(f"non-positive extend: {n_bytes}")
        offset = fs_file.length_bytes
        written = yield from self.write(fs_file, offset, n_bytes)
        return written

    def read_whole(self, fs_file: FsFile):
        """Sequential-test read: the entire file in one logical request."""
        result = yield from self.read(fs_file, 0, fs_file.length_bytes)
        return result

    def write_whole(self, fs_file: FsFile):
        """Sequential-test write: overwrite the entire file in place."""
        if fs_file.length_bytes == 0:
            return 0
        result = yield from self.write(fs_file, 0, fs_file.length_bytes)
        return result

    # -- metrics ---------------------------------------------------------------

    def fragmentation(self) -> FragmentationReport:
        """Fragmentation of the current state (§3 definitions)."""
        used: dict[int, float] = {}
        for fs_file in self.files.values():
            handle = fs_file.handle
            used[handle.file_id] = fs_file.length_bytes / self.unit_bytes
        return measure_fragmentation(self.allocator, used)

    @property
    def utilization(self) -> float:
        """Allocated fraction of the address space (governor input)."""
        return self.allocator.utilization

    def live_files(self) -> list[FsFile]:
        """All live files (stable order by id)."""
        return [self.files[k] for k in sorted(self.files)]

    # -- internals ----------------------------------------------------------

    def _check_live(self, fs_file: FsFile) -> None:
        if fs_file.fs_id not in self.files:
            raise FileSystemError(f"file {fs_file.fs_id} is not open")

    def _grow_to(self, fs_file: FsFile, new_length_bytes: int) -> None:
        needed_units = ceil_div(new_length_bytes, self.unit_bytes)
        handle = fs_file.handle
        missing = needed_units - handle.allocated_units
        if missing > 0:
            # No step: the allocator grows the file in one request.
            self.allocator.extend(handle, missing)
            tracer = self.sim.tracer
            if tracer is not None:
                # Allocation is instantaneous in the model, so the span
                # is zero-duration — it marks where in the request the
                # allocator ran and how much was asked of it.
                tracer.complete(
                    "alloc.extend",
                    "alloc",
                    tracer.context,
                    TID_FS,
                    self.sim.now,
                    self.sim.now,
                    {"units": missing},
                )
        fs_file.length_bytes = new_length_bytes
