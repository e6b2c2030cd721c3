"""Span tracing for simulated requests.

A *span* is one named interval on the simulated clock — a workload
operation, a file-system call, a disk request's queue wait or platter
service — linked to its parent so a whole logical request reads as one
tree.  The tracer is attached to a simulator as ``sim.tracer``; every
instrumented subsystem guards its recording behind
``tracer = self.sim.tracer`` / ``if tracer is not None``, so the default
(``None``) costs one attribute load and a pointer compare per site and
the event loop itself is untouched.

Span ids are a sequential counter.  Because the simulation is
deterministic (events fire in a fixed ``(time, seq)`` order and every
random draw comes from a named stream), creation order — and therefore
every id, parent link, and timestamp — is a pure function of
``(config, seed)``: the same trace falls out bit-identical in any
process, at any worker count, on either engine variant.

Parent propagation uses an *ambient context* (:attr:`Tracer.context`,
the span id new children adopt).  Generator-based processes interleave,
so the context is only meaningful during a synchronous descent within a
single engine callback: the workload driver sets it when an operation
begins, the file system narrows it to its own span, and the disk layer
reads it at ``submit`` time — all before the first ``yield``.  Code that
suspends resets the context to 0 first (see ``FileSystem.read``), so no
span started in one callback is ever adopted as a parent from an
unrelated one.

Span *ends* are recorded when the owning generator resumes or a
completion callback fires — both happen at the exact simulated time the
activity finished, so no extra engine events are needed and
``events_executed`` is identical with tracing on or off.

*Instants* mark state flips with no duration.  Their one source is the
fault injector, which records each drive failure, rebuild start,
restore and slowdown edge on the affected drive's lane, in the callback
that makes the flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Trace lanes (Chrome "thread ids"): one for the workload drivers, one
#: for file-system calls, and one per drive starting at TID_DRIVE_BASE.
TID_WORKLOAD = 1
TID_FS = 2
TID_DRIVE_BASE = 10


def drive_lane(drive_index: int) -> int:
    """The trace lane (tid) for drive ``drive_index``."""
    return TID_DRIVE_BASE + drive_index


class Span:
    """One open or closed interval on the simulated clock."""

    __slots__ = ("span_id", "parent_id", "name", "cat", "tid", "start_ms",
                 "end_ms", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        cat: str,
        tid: int,
        start_ms: float,
        end_ms: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.tid = tid
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.end_ms is None else f"{self.end_ms:g}"
        return f"<Span #{self.span_id} {self.name} {self.start_ms:g}..{state}>"


@dataclass
class TraceData:
    """A frozen, picklable trace: what a finished experiment carries.

    Spans are plain tuples
    ``(span_id, parent_id, name, cat, tid, start_ms, end_ms, args)``
    in creation order; instants are
    ``(name, cat, tid, time_ms, args)``.  Plain tuples keep the payload
    small on the wire (results cross process boundaries via pickle) and
    make byte-comparisons in the determinism tests direct.
    """

    spans: list[tuple] = field(default_factory=list)
    instants: list[tuple] = field(default_factory=list)
    lanes: dict[int, str] = field(default_factory=dict)
    frozen_at_ms: float = 0.0

    @property
    def span_count(self) -> int:
        return len(self.spans)


class Tracer:
    """Records spans against one simulator's clock.

    Args:
        sim: the simulator whose ``now`` timestamps every record.  The
            caller attaches the tracer as ``sim.tracer``; construction
            does not.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: list[Span] = []
        self.instants: list[tuple] = []
        #: Lane names exported as Chrome thread_name metadata.
        self.lanes: dict[int, str] = {
            TID_WORKLOAD: "workload",
            TID_FS: "filesystem",
        }
        #: Ambient parent span id for new children (0 = root).  Only
        #: meaningful during a synchronous descent — see the module
        #: docstring for the discipline.
        self.context = 0
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str,
        parent_id: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span starting now; close it later with :meth:`end`."""
        span = Span(
            self._next_id, parent_id, name, cat, tid, self.sim.now, None, args
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` at the current simulated time."""
        span.end_ms = self.sim.now

    def complete(
        self,
        name: str,
        cat: str,
        parent_id: int,
        tid: int,
        start_ms: float,
        end_ms: float,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Record a span whose interval is already known (both ends past)."""
        span = Span(
            self._next_id, parent_id, name, cat, tid, start_ms, end_ms, args
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def instant(self, name: str, cat: str, tid: int) -> None:
        """Record a zero-length event at the current simulated time."""
        self.instants.append((name, cat, tid, self.sim.now, None))

    def name_lane(self, tid: int, name: str) -> None:
        """Label a trace lane (rendered as a thread name in Perfetto)."""
        self.lanes[tid] = name

    # -- freezing ----------------------------------------------------------

    def freeze(self) -> TraceData:
        """Snapshot into a picklable :class:`TraceData`.

        Spans still open (requests in flight when the run hit its time
        cap) are closed at the current simulated time and flagged with
        ``{"truncated": True}`` so the exported trace never contains an
        interval extending past the data that produced it.
        """
        now = self.sim.now
        spans: list[tuple] = []
        for s in self.spans:
            end = s.end_ms
            args = s.args
            if end is None:
                end = max(s.start_ms, now)
                args = dict(args) if args else {}
                args["truncated"] = True
            spans.append(
                (s.span_id, s.parent_id, s.name, s.cat, s.tid, s.start_ms,
                 end, args)
            )
        return TraceData(
            spans=spans,
            instants=list(self.instants),
            lanes=dict(self.lanes),
            frozen_at_ms=now,
        )
