"""Discrete-event simulation engine.

This is the substrate under every experiment in the study: an event-driven
simulator with a millisecond clock, scheduled events kept "in a heap,
sorted by their scheduled time" as the paper puts it, and generator-based
*processes* in the style the paper describes for its per-user event
streams.

A process is a Python generator that yields *waitables*:

* a ``float``/``int`` — sleep for that many simulated milliseconds,
* a :class:`Waitable` (for example a disk-request completion or another
  :class:`Process`) — suspend until it succeeds.

Example:
    >>> sim = Simulator()
    >>> log = []
    >>> def worker():
    ...     yield 5.0
    ...     log.append(sim.now)
    >>> _ = sim.process(worker())
    >>> sim.run()
    >>> log
    [5.0]

Events are plain ``(time, seq, callback, args)`` tuples, where ``seq`` is
a global creation counter.  Timer events live in a binary heap; zero-delay
events (waitable resumptions, already-done yields, ``schedule(0)``) go to
a FIFO *immediate queue*, whose entries all carry the current time and a
larger ``seq`` than anything created before them.  :meth:`Simulator.run`
fires the smaller of the two fronts, so ``seq``'s uniqueness settles every
comparison before it reaches the callback.  Scheduled events are never
withdrawn: nothing in the model cancels one.

Joins schedule nothing.  :func:`join` returns a lone waitable itself, and
an :class:`AllOf` is counted down inside its children's
:meth:`Waitable.succeed`, completing within the call of the last one.
Only the waiting process's resume is queued, so a disk request costs its
drive's completion plus that resume however many layers join it.

Determinism guarantee: events fire in strictly nondecreasing
``(time, seq)`` order.  The immediate queue provably preserves that order
— see ``docs/MODEL.md`` — and can be disabled with
``Simulator(immediate_queue=False)`` to fall back to the reference
pure-heap scheduler, which fires the exact same events in the exact same
order.

The engine knows nothing of the layers above it.  Observers attach as
plain slots (``tracer``, ``metrics``, ``meter``, ``auditor``) that the
subsystems consult at their own recording sites; there is no
subscription mechanism, and only the auditor touches the run loop.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Any, Callable, Generator

from ..errors import SimulationError

ProcessGenerator = Generator["Waitable | float | int", Any, Any]


class Waitable:
    """Something a process can wait on.

    A waitable succeeds exactly once, delivering ``value`` to every
    registered callback and counting down every :class:`AllOf` that waits
    on it.  Subclasses (disk request completions, processes themselves)
    call :meth:`succeed` when their underlying activity finishes.
    """

    __slots__ = ("done", "value", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None
        self._waiters: list[Callable[["Simulator", Any], None] | AllOf] = []

    def on_success(self, callback: Callable[["Simulator", Any], None]) -> None:
        """Register ``callback(sim, value)`` to run when this succeeds."""
        if self.done:
            raise SimulationError("waiting on an already-completed waitable")
        self._waiters.append(callback)

    def succeed(self, sim: "Simulator", value: Any = None) -> None:
        """Complete the waitable, resuming all waiters at the current time.

        Each callback is queued as an immediate event; each join is
        counted down here and, on its last child, completed here too.
        """
        if self.done:
            raise SimulationError("waitable completed twice")
        self.done = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            push_immediate = sim._push_immediate
            now = sim.now
            for waiter in waiters:
                if waiter.__class__ is AllOf:
                    # A join counts down in place: no event of its own.
                    remaining = waiter._remaining - 1
                    waiter._remaining = remaining
                    if remaining == 0:
                        waiter.succeed(
                            sim, [child.value for child in waiter._children]
                        )
                else:
                    push_immediate(now, waiter, (value,))


class AllOf(Waitable):
    """Succeeds when every child waitable has succeeded.

    The value is the list of child values in construction order.  Used to
    join the per-drive pieces of a transfer: the transfer completes when
    its slowest drive does.

    A join schedules nothing: it sits in each pending child's waiter list,
    and the child's :meth:`~Waitable.succeed` counts it down in place.  The
    child that brings the count to zero completes the join inside that
    same call, so the join's own waiters are queued at the same instant,
    with no hop through the event queue.  The children list is kept, not
    copied.
    """

    __slots__ = ("_remaining", "_children")

    def __init__(self, waitables: "list[Waitable]") -> None:
        # Waitable.__init__ inlined: every multi-piece transfer builds one.
        self.done = False
        self.value = None
        self._waiters = []
        remaining = 0
        for waitable in waitables:
            if not waitable.done:
                remaining += 1
                waitable._waiters.append(self)
        self._remaining = remaining
        self._children = waitables
        if remaining == 0:
            # Nothing outstanding: complete synchronously (no waiters can
            # exist yet, so no scheduling is needed).
            self.done = True
            self.value = [waitable.value for waitable in waitables]


def join(waitables: "list[Waitable]") -> Waitable:
    """Wait for every waitable in ``waitables``: the one join helper.

    A lone waitable is returned as is, so a one-piece transfer is the
    piece itself (its value is the piece's value, not a one-item list);
    anything else is an :class:`AllOf`.
    """
    if len(waitables) == 1:
        return waitables[0]
    return AllOf(waitables)


class Process(Waitable):
    """A running generator-based simulation process.

    The process itself is a :class:`Waitable` that succeeds with the
    generator's return value, so processes can join each other with
    ``yield other_process``.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, generator: ProcessGenerator, name: str = "") -> None:
        super().__init__()
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")

    def _start(self, sim: "Simulator") -> None:
        self._step(sim, None)

    def _resume(self, sim: "Simulator", value: Any) -> None:
        if not self.done:
            self._step(sim, value)

    def _step(self, sim: "Simulator", send_value: Any) -> None:
        try:
            target = self._generator.send(send_value)
        except StopIteration as stop:
            self.succeed(sim, stop.value)
            return
        cls = target.__class__
        if cls is float or cls is int or isinstance(target, (int, float)):
            # schedule(), inlined: one resume per yielded think time is
            # the single most common scheduling call in a run.
            delay = float(target)
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past: {delay}"
                )
            if delay == 0.0:
                sim._push_immediate(sim.now, self._resume, (None,))
            else:
                sim._push_timer(sim.now + delay, self._resume, (None,))
        elif isinstance(target, Waitable):
            if target.done:
                sim.schedule_immediate(self._resume, target.value)
            else:
                target.on_success(self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected a delay "
                "(float) or a Waitable"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"


#: One scheduled event: ``(time, seq, callback, args)``.
Entry = tuple[float, int, Callable[..., Any], tuple[Any, ...]]


class Simulator:
    """The simulation clock and scheduler.

    Args:
        immediate_queue: route zero-delay events through the FIFO fast
            path (the default).  ``False`` selects the reference pure-heap
            scheduler; both fire identical events in identical order, and
            the test suite asserts it.

    Attributes:
        now: current simulated time in milliseconds.
    """

    def __init__(self, immediate_queue: bool = True) -> None:
        self.now = 0.0
        self._heap: list[Entry] = []
        self._immediate: deque[Entry] = deque()
        self._seq = 0
        self._stopped = False
        self._events_executed = 0
        # With the fast path disabled every "immediate" event goes through
        # the heap at the current time, which fires the same events in the
        # same order.
        if not immediate_queue:
            self._push_immediate = self._push_timer
        #: Observability attachment points (:mod:`repro.obs`).  ``None``
        #: (the default) is the disabled fast path: instrumented
        #: subsystems guard every recording behind an ``is not None``
        #: check, and the run loop itself never consults either, so a
        #: simulation without observers executes the exact same event
        #: sequence at the same speed as one predating the layer.
        self.tracer = None
        self.metrics = None
        #: The :class:`~repro.sim.meters.ThroughputMeter` of the phase
        #: being measured; every completed drive request credits it over
        #: its service span.  ``None`` outside measured phases.
        self.meter = None
        #: State-integrity attachment point (:mod:`repro.audit`).  Like
        #: the observability slots, ``None`` keeps the run loop
        #: untouched; an attached auditor is folded into :meth:`run`'s
        #: per-event stop check, where it sweeps invariants and
        #: fingerprints.
        self.auditor = None

    # -- scheduling -------------------------------------------------------

    def _push_timer(
        self, time: float, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        """Insert an event firing at absolute ``time`` into the heap."""
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    def _push_immediate(
        self, now: float, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        """Append a zero-delay event at time ``now`` to the immediate FIFO.

        ``now`` must be the current clock: the run loop's merge relies on
        every queued immediate event sharing the current time and carrying
        a larger ``seq`` than any event created before it.
        """
        seq = self._seq
        self._seq = seq + 1
        self._immediate.append((now, seq, callback, args))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(self, *args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        if delay == 0:
            self._push_immediate(self.now, callback, args)
        else:
            self._push_timer(self.now + delay, callback, args)

    def schedule_immediate(self, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(self, *args)`` at the current time.

        Equivalent to ``schedule(0.0, ...)`` but skips the delay checks;
        this is the zero-delay resumption fast path used by
        :meth:`Waitable.succeed`.
        """
        self._push_immediate(self.now, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(self, *args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if time == self.now:
            self._push_immediate(self.now, callback, args)
        else:
            self._push_timer(time, callback, args)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        process = Process(generator, name)
        self.schedule_immediate(process._start)
        return process

    def timeout(self, delay: float) -> Waitable:
        """A waitable that succeeds after ``delay`` ms (alternative to yielding a float)."""
        waitable = Waitable()
        self.schedule(delay, waitable.succeed)
        return waitable

    # -- execution --------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run events in time order.

        Stops when no events remain, when the clock would pass ``until``
        (the clock is then advanced to exactly ``until``), when
        ``stop_when()`` returns True after an event executes, or when
        :meth:`stop` is called from inside an event.  An attached
        ``auditor`` sees each event before ``stop_when`` is consulted.
        """
        self._stopped = False
        auditor = self.auditor
        if auditor is not None:
            # The auditor rides the per-event stop check, so an audited
            # run fires the same events through the same loop: callback,
            # count, audit, then the caller's own condition.
            user_stop = stop_when

            def audited_stop() -> bool:
                auditor.after_event(self)
                return user_stop is not None and user_stop()

            stop_when = audited_stop
        heap = self._heap
        immediate = self._immediate
        horizon = float("inf") if until is None else until
        while not self._stopped:
            # "What fires next": the lower (time, seq) of the two fronts.
            if immediate:
                if heap and heap[0] < immediate[0]:
                    if heap[0][0] > horizon:
                        break
                    entry = _heappop(heap)
                else:
                    if immediate[0][0] > horizon:
                        break
                    entry = immediate.popleft()
            elif heap:
                if heap[0][0] > horizon:
                    break
                entry = _heappop(heap)
            else:
                break
            time, _, callback, args = entry
            if time < self.now:
                raise SimulationError("event heap returned an event in the past")
            self.now = time
            callback(self, *args)
            # Live, not batched: telemetry frames and fingerprints read it
            # from inside the run.
            self._events_executed += 1
            if stop_when is not None and stop_when():
                return
        if until is not None and not self._stopped:
            if heap or immediate:
                self.now = until  # next event lies beyond the horizon
            else:
                self.now = max(self.now, until)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def live_events(self) -> list[Entry]:
        """Every scheduled event, sorted by ``(time, seq)``.

        Audit/fingerprint hook: the order is the firing order whichever
        queue holds each event, so two engines in identical logical state
        render the same snapshot.  O(n log n); never called from the run
        loop.
        """
        return sorted([*self._heap, *self._immediate])

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap) + len(self._immediate)

    @property
    def events_executed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_executed
