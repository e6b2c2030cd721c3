"""Canonical state fingerprints: deterministic digests of simulator state.

A fingerprint is the sha256 of a canonical JSON rendering of the pieces
of state that determine everything a simulation will do next: the live
event queue, every registered RNG stream's internal state, the
allocator's free structures, the extent map of every live file, and each
drive's request queue.  Two runs whose fingerprint timelines match at
every sample are in the same state at those points; the first differing
sample brackets the first diverging event, which is what
:mod:`repro.audit.bisect` exploits.

Canonicality: every snapshot is built from primitives only (ints,
floats, strings, lists, dicts), rendered with ``sort_keys=True`` and
fixed separators, so the digest is a pure function of simulator state —
independent of process, worker count, engine variant, or dict insertion
history.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Fingerprint",
    "canonical_digest",
    "capture_state",
    "snapshot_allocator",
    "snapshot_events",
    "snapshot_extents",
    "snapshot_queues",
    "snapshot_rng",
]


@dataclass(frozen=True)
class Fingerprint:
    """One timeline sample: the digest of the full state at one event.

    Attributes:
        index: events executed when the sample was taken.
        time_ms: simulated time at the sample.
        digest: sha256 hex digest of the canonical state rendering.
    """

    index: int
    time_ms: float
    digest: str


def canonical_digest(payload: Any) -> str:
    """sha256 over the canonical JSON rendering of ``payload``."""
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def _callback_name(callback: Any) -> str:
    """A stable, process-independent name for an event callback."""
    module = getattr(callback, "__module__", "") or ""
    qualname = getattr(callback, "__qualname__", "") or type(callback).__name__
    return f"{module}.{qualname}"


def snapshot_events(sim) -> list[list]:
    """Scheduled events as ``[time, seq, callback]``.

    Sorted by ``(time, seq)`` — the engine's firing order — so the
    rendering is identical whichever internal queue holds each event:
    the fast and reference engines route zero-delay events differently
    while firing identical sequences, and fingerprints must agree
    across both.
    """
    return [
        [time, seq, _callback_name(callback)]
        for time, seq, callback, _ in sim.live_events()
    ]


def snapshot_rng(ledger) -> dict[str, dict]:
    """Per-stream draw counts and internal-state digests from a ledger."""
    if ledger is None:
        return {}
    return {
        key: {"name": stream.name, "draws": stream.draws,
              "state": stream.state_digest()}
        for key, stream in ledger.items()
    }


def snapshot_allocator(allocator) -> dict:
    """The allocator's accounting totals plus its free structures."""
    if allocator is None:
        return {}
    return {
        "policy": type(allocator).__name__,
        "capacity_units": allocator.capacity_units,
        "allocated_units": allocator.allocated_units,
        "requests": allocator.allocation_requests,
        "failed": allocator.failed_requests,
        "free": allocator.snapshot_free_state(),
    }


def snapshot_extents(fs) -> list[list]:
    """Every live file's extent list, ordered by file id."""
    if fs is None:
        return []
    out: list[list] = []
    for fs_file in fs.live_files():
        handle = fs_file.handle
        extents = [[e.start, e.length] for e in handle.extents]
        descriptor = (
            [handle.descriptor.start, handle.descriptor.length]
            if handle.descriptor is not None
            else None
        )
        out.append([fs_file.fs_id, fs_file.length_bytes, descriptor, extents])
    return out


def snapshot_queues(array) -> list[dict]:
    """Per-drive queue state: pending requests, counters, busy flag."""
    if array is None:
        return []
    out: list[dict] = []
    for drive in array.drives:
        out.append(
            {
                "index": drive.index,
                "busy": drive.busy,
                "enqueued": drive.requests_enqueued,
                "served": drive.requests_served,
                "bytes_moved": drive.bytes_moved,
                "queue": [
                    [request.kind.value, request.start_byte,
                     request.n_bytes, submitted_at]
                    for request, _, submitted_at, _ in drive._queue
                ],
            }
        )
    return out


def capture_state(sim, fs=None, array=None, allocator=None, ledger=None) -> dict:
    """The full canonical snapshot a fingerprint digests.

    Every component is optional — the auditor passes whatever subsystems
    the experiment registered, and an unregistered component contributes
    an empty (but still canonical) section.
    """
    return {
        "time_ms": sim.now,
        "events_executed": sim.events_executed,
        "heap": snapshot_events(sim),
        "rng": snapshot_rng(ledger),
        "alloc": snapshot_allocator(allocator),
        "extents": snapshot_extents(fs),
        "queues": snapshot_queues(array),
    }
