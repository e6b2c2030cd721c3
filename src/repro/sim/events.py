"""Event scheduling structures for the discrete-event engine.

The paper's simulator maintains scheduled events "in a heap, sorted by their
scheduled time"; this module is that heap.  Events are ordered by
``(time, sequence)`` so that ties break in FIFO order, which keeps runs
deterministic under a fixed seed.

Hot-path design (every simulated event passes through here, so the layout
matters):

* The heap stores ``(time, seq, event)`` tuples, not :class:`Event`
  objects.  ``seq`` is unique, so heap comparisons always resolve on the
  first two tuple slots in C and never compare events.
* Zero-delay events (waitable resumptions, already-done yields) go through
  a FIFO *immediate queue* instead of the heap.  Every immediate event
  carries the current simulated time and a globally increasing ``seq``, so
  merging the queue front with the heap head by ``(time, seq)`` reproduces
  exactly the order a single heap would produce — see
  ``docs/MODEL.md`` ("Engine hot path and determinism guarantees").
* Cancelled events are discarded lazily: the engine's run loop drops
  entries at the queue fronts, and when mid-heap garbage passes a
  threshold the heap is compacted in one O(n) pass (``compactions``
  counts these).

Popping is not done here: :meth:`repro.sim.engine.Simulator.run` reads
both queues directly and merges their heads by ``(time, seq)``, the
engine's one "what fires next".
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable

from ..errors import SimulationError

#: Compaction triggers once at least this many cancelled entries are
#: buried in the heap *and* they make up half of it.  Small enough that
#: cancel-heavy workloads stay O(log live), large enough that compaction
#: cost amortizes to O(1) per cancellation.
COMPACTION_MIN_GARBAGE = 64


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.engine.Simulator.schedule`
    and fire by scheduled time (ties broken by creation order).  A
    cancelled event stays in its queue but is skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "immediate")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.immediate = False

    def cancel(self) -> None:
        """Mark the event so the engine discards it instead of firing it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} #{self.seq} {name}{state}>"


class EventHeap:
    """Min-heap of events keyed by ``(time, seq)`` plus an immediate FIFO.

    ``push`` inserts a timer event into the heap; ``push_immediate``
    appends a zero-delay event (at the caller's *current* time) to the
    FIFO.  :meth:`repro.sim.engine.Simulator.run` merges the two by
    ``(time, seq)``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._immediate: deque[Event] = deque()
        self._seq = 0
        self._live = 0
        self._garbage = 0  # cancelled entries still buried in _heap
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self, time: float, callback: Callable[..., Any], args: tuple[Any, ...] = ()
    ) -> Event:
        """Insert a new timer event and return it (for potential cancellation)."""
        seq = self._seq
        # Allocate without the __init__ frame: this and push_immediate are
        # the two object constructions on the per-event hot path.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.immediate = False
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def push_immediate(
        self, now: float, callback: Callable[..., Any], args: tuple[Any, ...] = ()
    ) -> Event:
        """Append a zero-delay event at time ``now`` to the immediate FIFO.

        ``now`` must be the engine's current clock: the determinism of the
        run loop's merge relies on every queued immediate event
        sharing the current time and carrying a larger ``seq`` than any
        event created before it.
        """
        seq = self._seq
        event = Event.__new__(Event)
        event.time = now
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.immediate = True
        self._seq = seq + 1
        self._live += 1
        self._immediate.append(event)
        return event

    def live_events(self) -> list[Event]:
        """Snapshot every live (non-cancelled) event in firing order.

        Audit/fingerprint hook: returns a fresh list sorted by
        ``(time, seq)`` regardless of which internal queue holds each
        event, so two engines in identical logical state render the
        same snapshot.  O(n log n); never called from the run loop.
        """
        events = [entry[2] for entry in self._heap if not entry[2].cancelled]
        events.extend(e for e in self._immediate if not e.cancelled)
        events.sort(key=lambda e: (e.time, e.seq))
        return events

    # -- cancellation bookkeeping ------------------------------------------

    def note_cancelled(self, event: Event) -> None:
        """Record that one previously pushed ``event`` was cancelled.

        The engine calls this when it cancels an event so that ``len`` and
        emptiness checks stay accurate without an O(n) heap scan.  Only a
        timer event counts as heap garbage: immediate events are purged
        FIFO and never accumulate mid-heap.
        """
        if self._live <= 0:
            raise SimulationError("cancellation bookkeeping underflow")
        self._live -= 1
        if not event.immediate:
            self._garbage += 1
            if (
                self._garbage >= COMPACTION_MIN_GARBAGE
                and self._garbage * 2 >= len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap in one O(n) pass.

        Mutates the heap list in place (slice assignment) because the
        engine's run loop holds a direct reference to it.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._garbage = 0
        self.compactions += 1
