"""Allocator interface shared by all four policies.

An allocator manages the disk system's linear address space (in disk
units).  The file-system layer asks it to grow, shrink, create, and delete
files; the allocator decides *placement* and returns :class:`Extent`
lists.  Placement is the entire difference between the policies the paper
compares — the disk model and workload never change.

Every allocator also owns one disk unit of metadata per file (the file
descriptor), so the meta-data bandwidth story is consistent across
policies; the restricted buddy policy additionally places descriptors
region-consciously.

A file's allocation is recorded once, on its :class:`AllocFile`: the
extents in logical order plus their cumulative ends.  The base class's
``extend``/``truncate``/``delete`` keep the two lists in step (every
policy grows and shrinks files at the tail), so ``allocated_units`` is
the last end and the file system's offset lookup
(:class:`~repro.fs.extmap.ExtentMap`) bisects the handle's own index.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field

from ..errors import (
    AllocatorStateError,
    DiskFullError,
    FileSystemError,
    SimulationError,
)
from ..sim.rng import RandomStream


class Extent:
    """A contiguous run of disk units: ``[start, start + length)``.

    An immutable value type.  Hand-rolled rather than a frozen dataclass:
    allocation churn builds one per block, and the explicit ``__init__``
    roughly halves construction cost while keeping plain-slot reads,
    value equality, and the read-only field contract.  It writes the
    fields through the slots' own setters, which get past the read-only
    ``__setattr__`` without the generic attribute lookup that
    ``object.__setattr__`` makes.
    """

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int) -> None:
        if start < 0 or length <= 0:
            raise FileSystemError(f"invalid extent {start}+{length}")
        _set_start(self, start)
        _set_length(self, length)

    @property
    def end(self) -> int:
        """One past the last unit."""
        return self.start + self.length

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"extent field {name!r} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"extent field {name!r} is read-only")

    def __repr__(self) -> str:
        return f"Extent(start={self.start}, length={self.length})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Extent:
            return self.start == other.start and self.length == other.length
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.length))


_set_start = Extent.start.__set__
_set_length = Extent.length.__set__


@dataclass
class AllocFile:
    """Per-file allocation state.

    The allocator creates these and keeps whatever policy-specific fields
    it needs in ``policy_state``; the file system reads ``extents`` and
    ``ends`` to map logical offsets to disk addresses.

    Attributes:
        file_id: unique id assigned at creation.
        extents: allocation in logical order — extent ``i`` holds the bytes
            that logically follow extent ``i-1``.
        ends: cumulative index over ``extents`` — ``ends[i]`` is the
            logical unit one past extent ``i``.  Only the allocator
            changes either list, always both together.
        descriptor: the one-unit metadata extent.
        policy_state: allocator-private bookkeeping.
    """

    file_id: int
    extents: list[Extent] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    descriptor: Extent | None = None
    policy_state: dict = field(default_factory=dict)
    deleted: bool = False

    @property
    def allocated_units(self) -> int:
        """Data units currently allocated to the file."""
        ends = self.ends
        return ends[-1] if ends else 0

    @property
    def extent_count(self) -> int:
        """Number of data extents (the paper's Table 4 statistic)."""
        return len(self.extents)


class Allocator(abc.ABC):
    """Base class: address-space accounting plus the policy hooks.

    Subclasses implement :meth:`_allocate_descriptor`, :meth:`_extend`,
    :meth:`_release_extent` and may override :meth:`create` for placement
    hints.  The base class tracks allocated totals and file liveness so
    fragmentation metrics and invariant checks are uniform.
    """

    #: Human-readable policy name (subclasses override).
    name = "abstract"

    #: True when one ``_extend(handle, n, step)`` call returns exactly
    #: the blocks that the chunk loop's per-chunk calls return, for every
    #: state.  Such a policy is asked once per growth.  Each policy that
    #: sets it says why next to it.
    CHUNK_INVARIANT = False

    def __init__(self, capacity_units: int, rng: RandomStream | None = None) -> None:
        if capacity_units <= 0:
            raise FileSystemError(f"capacity must be positive: {capacity_units}")
        self.capacity_units = capacity_units
        self.rng = rng or RandomStream(0, "allocator")
        self._ids = itertools.count(1)
        self.files: dict[int, AllocFile] = {}
        self._allocated_units = 0  # data + descriptors
        self.allocation_requests = 0
        self.failed_requests = 0

    def counters(self) -> dict[str, int]:
        """Request-level counters for the metrics snapshot."""
        return {
            "alloc.requests": self.allocation_requests,
            "alloc.failed_requests": self.failed_requests,
            "alloc.live_files": len(self.files),
        }

    # -- public API ---------------------------------------------------------

    def _wrap_state_error(
        self, op: str, error: SimulationError
    ) -> AllocatorStateError:
        """Attach policy/op context to a structural error escaping ``op``.

        A bare :class:`SimulationError` from deep inside the free
        structures ("block N already free") is unattributable when it
        surfaces from a fuzz run; re-raise it as
        :class:`~repro.errors.AllocatorStateError` naming the policy and
        the public operation.  Already-wrapped errors pass through
        (callers re-raise them before reaching this).
        """
        return AllocatorStateError(self.name, op, error)

    def create(self, size_hint_units: int = 0) -> AllocFile:
        """Create a file: allocate its descriptor, no data yet.

        Args:
            size_hint_units: expected eventual size; extent-based policies
                use it to pick the file's extent size.

        Raises:
            DiskFullError: no room for even the descriptor.
        """
        handle = AllocFile(file_id=next(self._ids))
        try:
            handle.descriptor = self._allocate_descriptor(handle, size_hint_units)
        except AllocatorStateError:
            raise
        except SimulationError as error:
            raise self._wrap_state_error("create", error) from error
        self._allocated_units += handle.descriptor.length
        self.files[handle.file_id] = handle
        return handle

    def extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        """Grow the file's allocation by at least ``n_units``.

        The model is the chunk loop: each chunk asks the policy for what
        is still missing, or for ``step_units`` when that is less (no
        step: one chunk).  Requests arrive in workload-sized chunks, which
        matters to policies whose placement depends on request history
        (the buddy system doubles the file on *each* request).  Every
        chunk counts as one allocation request, and is recorded on the
        handle before the next one is asked for.

        A policy whose ``CHUNK_INVARIANT`` is set is asked once for a
        growth the step splits into several chunks (see
        :meth:`_extend_at_once`); its answer is block for block the chunk
        loop's, and the chunk count is replayed from it.

        Returns the extents added (policies may round up — buddy doubles).

        Raises:
            DiskFullError: a chunk cannot be satisfied.  That chunk leaves
                nothing behind; the chunks before it stay allocated (the
                file is just shorter).
        """
        if handle.deleted or handle.file_id not in self.files:
            raise FileSystemError(f"file {handle.file_id} is not live")
        if n_units <= 0:
            raise FileSystemError(f"extend by non-positive size: {n_units}")
        if step_units is not None and step_units <= 0:
            raise FileSystemError(f"non-positive allocation step: {step_units}")
        first_new = len(handle.extents)
        if not (
            step_units is not None
            and step_units < n_units
            and self.CHUNK_INVARIANT
            and self._extend_at_once(handle, n_units, step_units)
        ):
            self._extend_chunks(handle, n_units, step_units)
        return handle.extents[first_new:]

    def _extend_chunks(
        self, handle: AllocFile, n_units: int, step_units: int | None
    ) -> None:
        """The chunk loop: one ``_extend`` call per chunk."""
        extents, ends = handle.extents, handle.ends
        total = ends[-1] if ends else 0
        needed_units = total + n_units
        policy_extend = self._extend
        while total < needed_units:
            request = needed_units - total
            if step_units is not None and step_units < request:
                request = step_units
            self.allocation_requests += 1
            try:
                added = policy_extend(handle, request)
            except DiskFullError:
                self.failed_requests += 1
                raise
            except AllocatorStateError:
                raise
            except SimulationError as error:
                raise self._wrap_state_error("extend", error) from error
            extents += added
            before = total
            for extent in added:
                total += extent.length
                ends.append(total)
            # Per chunk, not once at the end: a later chunk's disk-full
            # error reports the free space left after this one.
            self._allocated_units += total - before

    def _extend_at_once(
        self, handle: AllocFile, n_units: int, step_units: int
    ) -> bool:
        """One ``_extend`` call for a growth of several ``step_units`` chunks.

        A chunk-invariant policy returns the blocks the chunk loop's calls
        would have returned, in order.  Each chunk of that loop asks for
        ``min(step, missing)`` and ends with the first block that covers
        it, so replaying those boundaries over the blocks gives the
        chunk count, and so ``allocation_requests``.

        Returns False when the policy raises ``DiskFullError``; the
        caller then runs the chunk loop, which gives the failure its
        prefix of whole chunks, its counts and its message.  The replay
        starts from the entry state because nothing the failed attempt
        wrote survives:

        * its takes: a failing ``_extend`` returns what it took to the
          free space, and the free structures hold one layout per free
          set (coalesced map, coalesced buddy groups, LIFO list with
          nothing popped);
        * ``handle.policy_state``: restored here from the entry copy (the
          restricted policy's rollback re-derives its tier from the
          surviving extents, which at an exact tier bump differs from
          the entry tier);
        * the restricted policy's ``_last_satisfied_region``: ``_extend``
          reads it only for a file without a descriptor, and the replay's
          last successful take sets it again.  If the replay takes
          nothing, its first take failed, and that take is the attempt's
          first one, so the attempt wrote nothing either;
        * nothing else: the attempt touches no counter and neither of the
          handle's lists.
        """
        saved_state = dict(handle.policy_state)
        try:
            added = self._extend(handle, n_units, step_units)
        except DiskFullError:
            state = handle.policy_state
            state.clear()
            state.update(saved_state)
            return False
        except AllocatorStateError:
            raise
        except SimulationError as error:
            raise self._wrap_state_error("extend", error) from error
        ends = handle.ends
        handle.extents += added
        total = ends[-1] if ends else 0
        before = chunk_end = total
        needed_units = total + n_units
        requests = 0
        for extent in added:
            if total >= chunk_end:
                requests += 1
                request = needed_units - total
                chunk_end = total + (step_units if step_units < request else request)
            total += extent.length
            ends.append(total)
        self.allocation_requests += requests
        self._allocated_units += total - before
        return True

    def truncate(self, handle: AllocFile, n_units: int) -> int:
        """Free whole extents from the tail covering up to ``n_units``.

        Frees trailing extents while their cumulative length stays within
        ``n_units`` (a partial extent is never split off — block-organized
        policies shrink in block steps).  Returns units actually freed.
        """
        self._check_live(handle)
        if n_units < 0:
            raise FileSystemError(f"truncate by negative size: {n_units}")
        extents, ends = handle.extents, handle.ends
        freed = 0
        try:
            while extents and freed + extents[-1].length <= n_units:
                extent = extents.pop()
                ends.pop()
                self._release_extent(handle, extent)
                freed += extent.length
        except AllocatorStateError:
            raise
        except SimulationError as error:
            raise self._wrap_state_error("truncate", error) from error
        self._allocated_units -= freed
        return freed

    def delete(self, handle: AllocFile) -> None:
        """Free all data extents and the descriptor; retire the file."""
        self._check_live(handle)
        try:
            for extent in reversed(handle.extents):
                self._release_extent(handle, extent)
                self._allocated_units -= extent.length
            handle.extents.clear()
            handle.ends.clear()
            if handle.descriptor is not None:
                self._release_descriptor(handle, handle.descriptor)
                self._allocated_units -= handle.descriptor.length
                handle.descriptor = None
        except AllocatorStateError:
            raise
        except SimulationError as error:
            raise self._wrap_state_error("delete", error) from error
        handle.deleted = True
        del self.files[handle.file_id]

    # -- accounting -----------------------------------------------------------

    @property
    def allocated_units(self) -> int:
        """Units currently allocated (data + descriptors)."""
        return self._allocated_units

    @property
    def free_units(self) -> int:
        """Units not allocated to any file."""
        return self.capacity_units - self._allocated_units

    @property
    def utilization(self) -> float:
        """Allocated fraction of the address space."""
        return self._allocated_units / self.capacity_units

    def average_extents_per_file(self) -> float:
        """Mean data-extent count over live files (Table 4's statistic)."""
        if not self.files:
            return 0.0
        return sum(h.extent_count for h in self.files.values()) / len(self.files)

    def _check_live(self, handle: AllocFile) -> None:
        if handle.deleted or handle.file_id not in self.files:
            raise FileSystemError(f"file {handle.file_id} is not live")

    def _fail(self, n_units: int) -> DiskFullError:
        """Build the disk-full error for a request of ``n_units``."""
        return DiskFullError(n_units, self.free_units)

    # -- policy hooks -------------------------------------------------------

    @abc.abstractmethod
    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        """Place the file's one-unit descriptor."""

    @abc.abstractmethod
    def _extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        """Allocate at least ``n_units`` more for the file.

        ``step_units`` is given only to a ``CHUNK_INVARIANT`` policy
        asked for a whole growth in one call; it is the size of each
        request the chunk loop would have made.  On ``DiskFullError``
        the free space is left as it was.
        """

    @abc.abstractmethod
    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        """Return a data extent to the free space."""

    @abc.abstractmethod
    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        """Return a descriptor to the free space."""

    # -- validation -----------------------------------------------------------

    def check_free_space(self) -> None:
        """Cross-check the policy's free structures against accounting.

        Subclasses override with their structure-specific conservation
        check (free + allocated + unaddressable == capacity).  The base
        implementation accepts anything — a policy without auxiliary
        free structures has nothing extra to verify.
        """

    def audit_check(self) -> None:
        """Run every structural self-check the policy provides.

        The invariant auditor's allocator sweep: overlap detection plus
        the policy's conservation check.  Raises a
        :class:`~repro.errors.ReproError` subclass on violation.
        """
        self.check_no_overlap()
        self.check_free_space()

    def snapshot_free_state(self) -> dict:
        """JSON-safe snapshot of the policy's free structures.

        Fingerprint hook: the rendering must be a pure function of
        allocator state (primitives only, canonical ordering).
        Subclasses override; the base form carries only the accounting
        totals every policy shares.
        """
        return {"allocated_units": self._allocated_units}

    def check_no_overlap(self) -> None:
        """Assert no two live allocations overlap (test hook, O(n log n))."""
        spans: list[tuple[int, int]] = []
        for handle in self.files.values():
            for extent in handle.extents:
                spans.append((extent.start, extent.end))
            if handle.descriptor is not None:
                spans.append((handle.descriptor.start, handle.descriptor.end))
        spans.sort()
        for (start_a, end_a), (start_b, _) in zip(spans, spans[1:]):
            if start_b < end_a:
                raise FileSystemError(
                    f"overlapping allocations at {start_b} (< {end_a})"
                )
        if spans and spans[-1][1] > self.capacity_units:
            raise FileSystemError("allocation beyond end of address space")
