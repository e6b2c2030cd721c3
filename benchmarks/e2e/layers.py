"""Per-layer host-time accounting for the traced pass.

Nothing under ``src/`` knows about this module.  :class:`LayerClock`
replaces the public methods at each layer boundary with timing wrappers
for the duration of a ``with clock.installed():`` block and restores the
originals on exit.  Each wrapper keeps a per-thread stack, so a
boundary's *self* time is its inclusive time minus the time of the
boundaries called inside it.  A Figure-6 TS pass crosses about three
million boundaries, so time is summed in memory per layer; spans are kept
only for the boundaries named in ``span_names`` (experiment points and
service calls).

Generators are timed per resumption: ``Simulator.process`` wraps the
generator it is given and charges each resumption to the layer of the
module that defined it, and the generator methods of ``FileSystem`` are
wrapped the same way.
"""

from __future__ import annotations

import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import repro.core.experiments as experiments_module
import repro.disk.raid  # noqa: F401 - defines the RAID DiskSystems
import repro.serve.service as service_module
import repro.workload.driver as driver_module
from repro.alloc.base import Allocator
from repro.core.runner import ExperimentRunner, ExperimentTask, ResultCache
from repro.disk.array import DiskSystem
from repro.disk.drive import DiskDrive
from repro.disk.queue import QueuedDrive
from repro.errors import DiskFullError
from repro.fs.extmap import ExtentMap
from repro.fs.filesystem import FileSystem
from repro.serve.ledger import RunLedger
from repro.serve.service import ExperimentService
from repro.sim.engine import Simulator

LAYERS = ("sim", "workload", "fs", "alloc", "disk", "core", "serve")

_perf = time.perf_counter


def layer_of_module(module: str) -> str:
    """The layer a ``repro.<package>`` module belongs to (``sim`` otherwise)."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "sim"


@dataclass(frozen=True)
class Span:
    """One recorded crossing of a boundary named in ``span_names``."""

    name: str
    thread: int
    start: float
    end: float
    key: str


def _zeros(kind: type) -> dict:
    return dict.fromkeys(LAYERS, kind())


@dataclass
class LayerTotals:
    """Self seconds, crossings, counters and spans (picklable)."""

    self_s: dict = field(default_factory=lambda: _zeros(float))
    calls: dict = field(default_factory=lambda: _zeros(int))
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def add(self, other: "LayerTotals") -> None:
        for layer in LAYERS:
            self.self_s[layer] += other.self_s[layer]
            self.calls[layer] += other.calls[layer]
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.spans.extend(other.spans)


class _ThreadState(LayerTotals):
    def __init__(self) -> None:
        super().__init__()
        self.stack: list[list[float]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


def _job_key(args: tuple, result: Any) -> str:
    return args[1].key


def _key_arg(args: tuple, result: Any) -> str:
    return args[1]


#: Boundary name -> how its span finds the cache key it works for.
_SPAN_KEYS: dict[str, Callable[[tuple, Any], str]] = {
    "core.execute": lambda args, result: args[0].cache_key,
    "core.cache_load": _key_arg,
    "core.cache_store": _key_arg,
    "serve.submit": lambda args, result: result[0].key,
    "serve.wait": _job_key,
    "serve.job_view": _job_key,
    "serve.ledger_accept": _key_arg,
    "serve.ledger_done": _key_arg,
}


class LayerClock:
    """Installs the timing wrappers and sums self time per layer."""

    def __init__(self, span_names: frozenset[str] = frozenset()) -> None:
        self.span_names = span_names
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def totals(self) -> LayerTotals:
        """Everything recorded so far, summed over threads."""
        totals = LayerTotals()
        with self._lock:
            states = list(self._states)
        for state in states:
            totals.add(state)
        return totals

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn: Callable, name: str, counter: str | None = None) -> Callable:
        layer = name.split(".")[0]
        span_key = _SPAN_KEYS[name] if name in self.span_names else None
        fails = layer + ".fails"
        clock = self

        def timed(*args, **kwargs):
            state = clock._state()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            result = done = None
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except DiskFullError:
                state.count(fails)
                raise
            finally:
                end = _perf()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                state.self_s[layer] += end - start - frame[0]
                state.calls[layer] += 1
                if counter is not None:
                    state.count(counter)
                if span_key is not None and done:
                    state.spans.append(Span(
                        name, threading.get_ident(), start, end,
                        span_key(args, result),
                    ))

        return timed

    def _timed_generator(self, generator, layer: str):
        """Drive ``generator``, timing each resumption as one crossing."""
        state = self._state()
        stack = state.stack
        self_s = state.self_s
        calls = state.calls
        value = None
        while True:
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                target = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = _perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
            value = yield target

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        fn = getattr(owner, attr)
        if inspect.isgeneratorfunction(fn):
            layer = name.split(".")[0]

            def replacement(*args, **kwargs):
                return self._timed_generator(fn(*args, **kwargs), layer)
        else:
            replacement = self._timed(fn, name, **options)
        self._patch(owner, attr, replacement)

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Wrap every layer boundary; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        clock = self
        run = Simulator.run

        def counted_run(sim, *args, **kwargs):
            before = sim.events_executed
            try:
                return run(sim, *args, **kwargs)
            finally:
                clock._state().count("sim.events", sim.events_executed - before)

        self._patch(Simulator, "run", self._timed(counted_run, "sim.run"))
        process = Simulator.process

        def traced_process(sim, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame else ""
            return process(
                sim,
                clock._timed_generator(generator, layer_of_module(module)),
                name or getattr(generator, "__name__", "process"),
            )

        self._patch(Simulator, "process", traced_process)

        self._wrap(driver_module.WorkloadDriver, "populate", "workload.populate")
        fill = self._timed(
            driver_module.run_allocation_until_full, "workload.allocation_test"
        )
        self._patch(driver_module, "run_allocation_until_full", fill)
        self._patch(experiments_module, "run_allocation_until_full", fill)

        for attr in ("create", "allocate_to", "delete", "truncate", "reorganize",
                     "read", "write", "extend", "read_whole", "write_whole",
                     "fragmentation"):
            self._wrap(FileSystem, attr, f"fs.{attr}")
        self._wrap(ExtentMap, "runs", "fs.runs")

        # Each concrete policy, so a super() call is not counted twice.
        for cls in _concrete_subclasses(Allocator):
            for attr in ("create", "extend", "truncate", "delete"):
                self._wrap(cls, attr, f"alloc.{attr}")

        for cls in _concrete_subclasses(DiskSystem):
            self._wrap(cls, "transfer", "disk.transfer")
        self._wrap(QueuedDrive, "submit", "disk.submit")
        self._wrap(DiskDrive, "service", "disk.service", counter="disk.requests")

        self._wrap(ExperimentTask, "execute", "core.execute")
        self._wrap(ExperimentRunner, "run", "core.run")
        self._wrap(ResultCache, "load", "core.cache_load")
        self._wrap(ResultCache, "store", "core.cache_store")

        for attr in ("submit", "job_view", "wait"):
            self._wrap(ExperimentService, attr, f"serve.{attr}")
        self._wrap(RunLedger, "accept", "serve.ledger_accept")
        self._wrap(RunLedger, "done", "serve.ledger_done")
        self._wrap(service_module, "spec_to_task", "serve.spec_to_task")


def _concrete_subclasses(base: type) -> list[type]:
    found, pending = set(), list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if not inspect.isabstract(cls) and cls.__module__.startswith("repro."):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)
