"""Discrete-event simulation engine.

This is the substrate under every experiment in the study: an event-driven
simulator with a millisecond clock, a time-ordered event heap
(:mod:`repro.sim.events`), and generator-based *processes* in the style the
paper describes for its per-user event streams.

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

Determinism guarantee: events fire in strictly nondecreasing
``(time, seq)`` order, where ``seq`` is a global creation counter.  The
zero-delay fast path (:meth:`Simulator.schedule_immediate`, used by
:meth:`Waitable.succeed` and already-done yields) provably preserves that
order — see ``docs/MODEL.md`` — and can be disabled with
``Simulator(immediate_queue=False)`` to fall back to the reference
pure-heap scheduler, which fires the exact same events in the exact same
order.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from typing import Any, Callable, Generator, Iterable

from ..errors import SimulationError
from .events import Event, EventHeap

ProcessGenerator = Generator["Waitable | float | int", Any, Any]


class FaultEvent:
    """One fault-injection state change, as seen through the engine hook.

    The fault subsystem (:mod:`repro.fault`) publishes these via
    :meth:`Simulator.emit_fault` whenever a drive fails, slows, recovers,
    or a rebuild starts — so meters, reports, and tests can observe the
    injection timeline without coupling to the injector's internals.

    Attributes:
        kind: ``"disk-failure"``, ``"rebuild-start"``,
            ``"drive-restored"``, ``"slowdown-start"``, ``"slowdown-end"``.
        drive: index of the affected drive in the disk system.
        time_ms: simulated time the change took effect.
    """

    __slots__ = ("kind", "drive", "time_ms")

    def __init__(self, kind: str, drive: int, time_ms: float) -> None:
        self.kind = kind
        self.drive = drive
        self.time_ms = time_ms

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultEvent {self.kind} d{self.drive} @{self.time_ms:g}ms>"


class Waitable:
    """Something a process can wait on.

    A waitable succeeds exactly once, delivering ``value`` to every
    registered callback.  Subclasses (disk request completions, processes
    themselves) call :meth:`succeed` when their underlying activity
    finishes.
    """

    __slots__ = ("done", "value", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None
        self._waiters: list[Callable[["Simulator", Any], None]] = []

    def on_success(self, callback: Callable[["Simulator", Any], None]) -> None:
        """Register ``callback(sim, value)`` to run when this succeeds."""
        if self.done:
            raise SimulationError("waiting on an already-completed waitable")
        self._waiters.append(callback)

    def succeed(self, sim: "Simulator", value: Any = None) -> None:
        """Complete the waitable, resuming all waiters at the current time."""
        if self.done:
            raise SimulationError("waitable completed twice")
        self.done = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            push_immediate = sim._push_immediate
            now = sim.now
            for callback in waiters:
                push_immediate(now, callback, (value,))


class AllOf(Waitable):
    """Succeeds when every child waitable has succeeded.

    The value is the list of child values in construction order.  Used by
    the disk array to join the per-disk pieces of a striped transfer: the
    transfer completes when its slowest disk does.
    """

    __slots__ = ("_remaining", "_results")

    def __init__(self, waitables: "list[Waitable]") -> None:
        # Inlined Waitable.__init__ plus direct waiter registration: a
        # join is built for every disk transfer, so the construction path
        # skips the superclass call and the on_success indirection (the
        # done-check it performs is the branch below).
        self.done = False
        self.value = None
        self._waiters = []
        results: list[Any] = [None] * len(waitables)
        self._results = results
        remaining = 0
        for index, waitable in enumerate(waitables):
            if waitable.done:
                results[index] = waitable.value
            else:
                remaining += 1
                waitable._waiters.append(self._make_child_callback(index))
        self._remaining = remaining
        if remaining == 0:
            # Nothing outstanding: complete synchronously (no waiters can
            # exist yet, so no scheduling is needed).
            self.done = True
            self.value = results

    def _make_child_callback(self, index: int) -> Callable[["Simulator", Any], None]:
        def child_done(sim: "Simulator", value: Any) -> None:
            self._results[index] = value
            self._remaining -= 1
            if self._remaining == 0:
                # The results list is handed over as-is: every slot is
                # final once the join completes, so a defensive copy per
                # transfer would buy nothing.
                self.succeed(sim, self._results)

        return child_done


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
        self._heap = EventHeap()
        self._stopped = False
        self._events_executed = 0
        self._immediate_enabled = immediate_queue
        # Bound once: the zero-delay scheduling primitive.  With the fast
        # path disabled every "immediate" event goes through the heap at
        # the current time, which fires the same events in the same order.
        if immediate_queue:
            self._push_immediate = self._heap.push_immediate
        else:
            self._push_immediate = self._heap.push
        self._push_timer = self._heap.push
        #: Observability attachment points (:mod:`repro.obs`).  ``None``
        #: (the default) is the disabled fast path: instrumented
        #: subsystems guard every recording behind an ``is not None``
        #: check, and the run loop itself never consults either, so a
        #: simulation without observers executes the exact same event
        #: sequence at the same speed as one predating the layer.
        self.tracer = None
        self.metrics = None
        #: State-integrity attachment point (:mod:`repro.audit`).  Like
        #: the observability slots, ``None`` keeps the run loop
        #: untouched; an attached auditor is folded into :meth:`run`'s
        #: per-event stop check, where it sweeps invariants and
        #: fingerprints.
        self.auditor = None
        #: Fault-hook subscribers (see :meth:`on_fault`); empty for every
        #: fault-free simulation, so the hot path never touches them.
        self._fault_hooks: list[Callable[["Simulator", FaultEvent], None]] = []

    # -- scheduling -------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(self, *args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        if delay == 0:
            return self._push_immediate(self.now, callback, args)
        return self._push_timer(self.now + delay, callback, args)

    def schedule_immediate(
        self, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(self, *args)`` at the current time.

        Equivalent to ``schedule(0.0, ...)`` but skips the delay checks;
        this is the zero-delay resumption fast path used by
        :meth:`Waitable.succeed`.
        """
        return self._push_immediate(self.now, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(self, *args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if time == self.now:
            return self._push_immediate(self.now, callback, args)
        return self._heap.push(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event so it never fires."""
        if not event.cancelled:
            event.cancel()
            self._heap.note_cancelled(event)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        process = Process(generator, name)
        self.schedule_immediate(process._start)
        return process

    # -- fault hooks ------------------------------------------------------

    def on_fault(self, callback: Callable[["Simulator", FaultEvent], None]) -> None:
        """Subscribe ``callback(sim, event)`` to fault-injection events.

        The engine itself never emits faults; :mod:`repro.fault` publishes
        through :meth:`emit_fault` as its injected failures, slowdowns,
        and rebuilds take effect.  Subscribing is free for fault-free
        runs (the list stays empty and is never consulted per event).
        """
        self._fault_hooks.append(callback)

    def emit_fault(self, event: FaultEvent) -> None:
        """Deliver a fault event to every subscriber, synchronously."""
        for callback in self._fault_hooks:
            callback(self, event)

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

        Stops when no live events remain, when the clock would pass
        ``until`` (the clock is then advanced to exactly ``until``), when
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
        # The two event queues, aliased for the duration of the loop.
        # EventHeap._compact mutates the heap list in place, so these
        # references stay valid across callbacks that cancel events.
        heap_list = heap._heap
        immediate = heap._immediate
        horizon = float("inf") if until is None else until
        popped = 0
        try:
            while not self._stopped:
                # -- fused "what fires next" (mirrors EventHeap.pop_next;
                #    keep the two in sync) --------------------------------
                while immediate and immediate[0].cancelled:
                    immediate.popleft()
                while heap_list and heap_list[0][2].cancelled:
                    _heappop(heap_list)
                    heap._garbage -= 1
                event = None
                if immediate:
                    front = immediate[0]
                    if heap_list:
                        head = heap_list[0]
                        head_time = head[0]
                        if head_time < front.time or (
                            head_time == front.time and head[1] < front.seq
                        ):
                            if head_time > horizon:
                                break
                            _heappop(heap_list)
                            event = head[2]
                    if event is None:
                        if front.time > horizon:
                            break
                        immediate.popleft()
                        event = front
                elif heap_list:
                    head = heap_list[0]
                    if head[0] > horizon:
                        break
                    _heappop(heap_list)
                    event = head[2]
                else:
                    break
                popped += 1
                event_time = event.time
                if event_time < self.now:
                    raise SimulationError(
                        "event heap returned an event in the past"
                    )
                self.now = event_time
                event.callback(self, *event.args)
                # Live, not batched: telemetry frames and fingerprints
                # read it from inside the run.
                self._events_executed += 1
                if stop_when is not None and stop_when():
                    return
        finally:
            # heap._live is batched: mid-run it is read only by the
            # cancellation underflow guard, where a transiently high count
            # is harmless, and the compaction trigger compares against the
            # raw heap list, not the live count.  Counting pops rather
            # than completed callbacks keeps it exact when one raises.
            heap._live -= popped
        if until is not None and not self._stopped:
            if len(heap) > 0:
                self.now = until  # next event lies beyond the horizon
            else:
                self.now = max(self.now, until)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._heap)

    @property
    def events_executed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_executed

    @property
    def compactions(self) -> int:
        """Lazy heap compactions performed (cancel-heavy workloads)."""
        return self._heap.compactions

    # -- convenience ------------------------------------------------------

    def run_all(self, processes: Iterable[ProcessGenerator]) -> None:
        """Start every generator as a process, then run to completion."""
        for generator in processes:
            self.process(generator)
        self.run()
