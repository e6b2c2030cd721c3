"""The closure-per-child join: the differential oracle for ``join``.

Before joins counted down in place, :class:`~repro.sim.engine.AllOf`
registered one closure per pending child, and every join site built an
``AllOf`` even around a single piece.  Each child completion therefore
queued a ``child_done`` event, and the last one queued the join's own
waiters: a one-drive striped read took the drive's completion, a hop
through the array's join, a hop through the file system's join, and the
process resume.

:func:`closure_join` rebuilds that behaviour on today's
:class:`~repro.sim.engine.Waitable` (whose ``succeed`` still queues every
plain callback as an immediate event).  Swapped into the file-system and
disk join sites, it replays the old event stream exactly, so the
resumption order of the two joins can be compared run for run.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator, Waitable


class ClosureAllOf(Waitable):
    """Succeeds when every child has, through one queued hop per child."""

    __slots__ = ("_remaining", "_results")

    def __init__(self, waitables: list[Waitable]) -> None:
        super().__init__()
        results: list[Any] = [None] * len(waitables)
        self._results = results
        remaining = 0
        for index, waitable in enumerate(waitables):
            if waitable.done:
                results[index] = waitable.value
            else:
                remaining += 1
                waitable.on_success(self._make_child_callback(index))
        self._remaining = remaining
        if remaining == 0:
            self.done = True
            self.value = results

    def _make_child_callback(
        self, index: int
    ) -> Callable[[Simulator, Any], None]:
        def child_done(sim: Simulator, value: Any) -> None:
            self._results[index] = value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(sim, self._results)

        return child_done


def closure_join(waitables: list[Waitable]) -> Waitable:
    """The old join: always a :class:`ClosureAllOf`, even around one piece."""
    return ClosureAllOf(waitables)
