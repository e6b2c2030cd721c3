"""Workload execution: user event processes and the allocation test loop.

Two execution paths share the same stochastic operation stream
(:mod:`repro.workload.ops`):

* :class:`WorkloadDriver` — timed: one simulation process per user per
  file type, staggered per the paper's initialization ("each is assigned
  a start time uniformly distributed in the range [0, number of users *
  hit frequency]"), issuing operations with exponentially distributed
  think time and applying the disk-utilization governor ("any extend
  operation occurring when the disk utilization is greater than M is
  converted into a truncate operation").
* :func:`run_allocation_until_full` — untimed: "performing only the
  extend, truncate, delete, and create operations in the proportion as
  expressed by the file type parameters" until the first allocation
  failure, at which point fragmentation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..alloc.metrics import FragmentationReport
from ..errors import DataUnavailableError, DiskFullError, SimulationError
from ..fs.filesystem import FileSystem, FsFile
from ..obs.tracer import TID_WORKLOAD
from ..obs.telemetry import emit, progress_frame, telemetry_enabled
from ..sim.engine import Simulator
from ..sim.rng import PreparedWeights, RandomStream
from ..sim.stats import Tally
from .filetype import FileType, Operation
from .ops import (
    pick_offset,
    plan_operation,
    prepare_weights,
    sample_initial_size,
)
from .profiles import Profile

#: The paper's disk-utilization bounds for the performance tests.
DEFAULT_LOWER_BOUND = 0.90
DEFAULT_UPPER_BOUND = 0.95


def _populate_step(file_type: FileType) -> int | None:
    """Allocation-request grain for building a file of this type."""
    step = file_type.allocation_size_bytes or file_type.rw_size_bytes
    return step or None


class WorkloadDriver:
    """Timed workload execution against a file system.

    Attributes:
        mode: ``"application"`` (the §2.2 mixes) or ``"sequential"``
            (whole-file reads/writes only); may be switched between
            phases by the experiment controller.
    """

    def __init__(
        self,
        sim: Simulator,
        fs: FileSystem,
        profile: Profile,
        seed: int = 0,
        lower_bound: float = DEFAULT_LOWER_BOUND,
        upper_bound: float = DEFAULT_UPPER_BOUND,
    ) -> None:
        if not 0 < lower_bound <= upper_bound <= 1:
            raise SimulationError(
                f"bad utilization bounds [{lower_bound}, {upper_bound}]"
            )
        self.sim = sim
        self.fs = fs
        self.profile = profile
        self.rng = RandomStream(seed, f"driver/{profile.name}")
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.mode = "application"
        self.files: dict[str, list[FsFile]] = {}
        # Per-operation latency; each tally's count is the operation count.
        self.op_latency: dict[str, Tally] = {}
        self.disk_full_events = 0
        self.governor_conversions = 0
        self.io_failures = 0
        # Per-(type, mode) cumulative operation weights, built once: the
        # per-op weighted draw then stops rebuilding and revalidating its
        # weight lists (same single RNG draw, same selection).
        self._prepared_weights = {
            (file_type.name, mode): prepare_weights(weights)
            for file_type in profile.types
            for mode, weights in (
                ("application", file_type.operation_weights),
                ("sequential", file_type.sequential_weights),
            )
        }

    # -- setup ------------------------------------------------------------------

    def populate(self) -> None:
        """Create the initial file population (instant, untimed).

        Stops filling gracefully if the disk runs out mid-population — the
        allocation test *wants* to begin near-full.
        """
        for file_type in self.profile.types:
            init_rng = self.rng.fork(f"init/{file_type.name}")
            population: list[FsFile] = []
            try:
                for _ in range(file_type.n_files):
                    population.append(self._create_file(file_type, init_rng))
            except DiskFullError:
                self.disk_full_events += 1
            self.files[file_type.name] = population

    def start_users(self) -> None:
        """Spawn every user process with its staggered start time."""
        for file_type in self.profile.types:
            stagger_range = file_type.n_users * file_type.hit_frequency_ms
            for user_index in range(file_type.n_users):
                user_rng = self.rng.fork(f"user/{file_type.name}/{user_index}")
                delay = user_rng.uniform(0.0, max(stagger_range, 0.0))
                self.sim.process(
                    self._user_loop(file_type, user_rng, delay),
                    name=f"{file_type.name}#{user_index}",
                )

    # -- user processes -----------------------------------------------------------

    def _user_loop(self, file_type: FileType, rng: RandomStream, delay: float):
        yield delay
        while True:
            yield from self._one_operation(file_type, rng)
            yield rng.exponential(file_type.process_time_ms)

    def _one_operation(self, file_type: FileType, rng: RandomStream):
        population = self.files.get(file_type.name)
        if not population:
            return
        # Index-keyed pick (same draw as rng.choice of the population):
        # keeping the position makes the delete path below a positional
        # pop instead of an equality scan over the whole population.
        index = rng.choice_index(len(population))
        fs_file = population[index]
        op, size = plan_operation(
            rng, file_type, self._prepared_weights[(file_type.name, self.mode)]
        )

        # The governor: extends above the upper bound become truncates.
        if op is Operation.EXTEND and self.fs.utilization > self.upper_bound:
            op = Operation.TRUNCATE
            size = max(1, file_type.truncate_size_bytes)
            self.governor_conversions += 1

        sim = self.sim
        started = sim.now
        tracer = sim.tracer
        span = None
        if tracer is not None:
            # Operations are roots of the span tree: user processes run
            # concurrently, so each operation anchors its own descent
            # (parent 0) rather than inheriting ambient context.
            span = tracer.begin(
                "op." + op.value,
                "workload",
                0,
                TID_WORKLOAD,
                {"type": file_type.name, "bytes": size},
            )
            tracer.context = span.span_id
        try:
            # Reads and writes are inlined (not delegated to _do_read /
            # _do_write) to keep one generator frame off the per-op path;
            # the sequential mode check is the same either way.
            if op is Operation.READ:
                if self.mode == "sequential":
                    yield from self.fs.read_whole(fs_file)
                else:
                    offset, new_cursor = pick_offset(
                        rng, file_type, fs_file.length_bytes,
                        fs_file.cursor_bytes, size,
                    )
                    fs_file.cursor_bytes = new_cursor
                    yield from self.fs.read(fs_file, offset, size)
            elif op is Operation.WRITE:
                if self.mode == "sequential":
                    yield from self.fs.write_whole(fs_file)
                else:
                    offset, new_cursor = pick_offset(
                        rng, file_type, fs_file.length_bytes,
                        fs_file.cursor_bytes, size,
                    )
                    fs_file.cursor_bytes = new_cursor
                    yield from self.fs.write(fs_file, offset, size)
            elif op is Operation.EXTEND:
                yield from self.fs.extend(fs_file, size)
            elif op is Operation.TRUNCATE:
                self.fs.truncate(fs_file, size)
            elif op is Operation.DELETE:
                yield from self._do_delete(
                    file_type, fs_file, population, index, size
                )
        except DiskFullError:
            # "a disk full condition is logged, and the current event is
            # rescheduled" — the user simply thinks again and retries.
            self.disk_full_events += 1
        except DataUnavailableError:
            # Injected fault exhausted the organization's redundancy for
            # this span (e.g. a failed drive in a plain striped array).
            # The application sees an I/O error; the user retries later.
            self.io_failures += 1
        finally:
            if span is not None:
                tracer.end(span)
                tracer.context = 0
        op_value = op.value
        elapsed = sim.now - started
        tally = self.op_latency.get(op_value)
        if tally is None:  # first op of this kind; setdefault would build
            tally = self.op_latency[op_value] = Tally()  # a Tally per call
        tally.add(elapsed)
        metrics = sim.metrics
        if metrics is not None:
            metrics.observe("workload.op_ms." + op_value, elapsed)

    def _do_delete(self, file_type, fs_file, population, index: int, new_size: int):
        """Delete and recreate: churn that keeps the population stable.

        ``index`` is ``fs_file``'s position in ``population`` (from the
        pick above): a positional pop removes the exact object chosen in
        O(shift) with no per-element comparisons, where ``list.remove``
        scanned the population calling ``FsFile.__eq__`` on every entry.
        The surviving files keep their relative order, so subsequent
        index draws land on the same files they always did.
        """
        popped = population.pop(index)
        assert popped is fs_file
        self.fs.delete(fs_file)
        replacement = self.fs.create(
            size_hint_bytes=file_type.allocation_size_bytes, tag=file_type.name
        )
        population.append(replacement)
        # Writing the new file's contents is real, timed I/O.
        yield from self.fs.write(replacement, 0, new_size)

    # -- shared helpers ------------------------------------------------------------

    def _create_file(self, file_type: FileType, rng: RandomStream) -> FsFile:
        """Create + instantly fill one file (initialization-phase path).

        The fill proceeds in workload-sized allocation requests ("requests
        are made until the allocation length ... is greater than or equal
        to this size"), which is what gives the buddy policy its doubling
        chain.
        """
        size = sample_initial_size(rng, file_type)
        fs_file = self.fs.create(
            size_hint_bytes=file_type.allocation_size_bytes, tag=file_type.name
        )
        self.fs.allocate_to(fs_file, size, step_bytes=_populate_step(file_type))
        return fs_file


# ---------------------------------------------------------------------------
# The untimed allocation test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationTestResult:
    """Outcome of one allocation test (feeds Figures 1 & 4 and Table 3/4).

    Attributes:
        filled: True when the test ended with an allocation failure (the
            paper's stopping rule).  False when the churn reached a steady
            state below full within the operation budget — the
            fragmentation snapshot is then of that steady state.
    """

    fragmentation: FragmentationReport
    operations: int
    average_extents_per_file: float
    file_count: int
    filled: bool = True


def run_allocation_until_full(
    fs: FileSystem,
    profile: Profile,
    seed: int = 0,
    max_operations: int = 5_000_000,
    auditor=None,
) -> AllocationTestResult:
    """Churn allocation operations until the first failure; measure.

    The file system must be freshly created.  The initial population is
    built first; then extend / truncate / delete(+create) operations are
    drawn per type (types weighted by their event rates) until a request
    cannot be satisfied: "As soon as the first allocation request fails,
    the external and internal fragmentation are computed."

    ``auditor`` (an :class:`~repro.audit.InvariantAuditor`) is notified
    after every churn operation; the test never enters the event loop,
    so operations stand in for executed events on the sweep cadence.
    """
    rng = RandomStream(seed, f"alloctest/{profile.name}")
    files: dict[str, list[FsFile]] = {}
    failed = False

    # Initialization phase: create the population.
    for file_type in profile.types:
        init_rng = rng.fork(f"init/{file_type.name}")
        population: list[FsFile] = []
        files[file_type.name] = population
        try:
            for _ in range(file_type.n_files):
                size = sample_initial_size(init_rng, file_type)
                fs_file = fs.create(
                    size_hint_bytes=file_type.allocation_size_bytes,
                    tag=file_type.name,
                )
                population.append(fs_file)
                fs.allocate_to(fs_file, size, step_bytes=_populate_step(file_type))
        except DiskFullError:
            failed = True
            break

    # Churn phase: alloc-affecting operations only.
    churn_types = [
        t for t in profile.types if sum(t.allocation_weights.values()) > 0
    ]
    operations = 0
    if not failed and churn_types:
        type_rates = [t.event_rate for t in churn_types]
        # Built once, drawn millions of times: prepared cumulative
        # weights for the type mix and each type's allocation ratios
        # (identical draws and selections to the unprepared calls).
        prepared_types = PreparedWeights(churn_types, type_rates)
        prepared_ops = {
            t.name: prepare_weights(t.allocation_weights) for t in churn_types
        }
        op_rng = rng.fork("churn")
        while operations < max_operations:
            file_type = op_rng.weighted_choice_prepared(prepared_types)
            population = files[file_type.name]
            if not population:
                continue
            index = op_rng.choice_index(len(population))
            fs_file = population[index]
            planned_op, planned_size = plan_operation(
                op_rng, file_type, prepared_ops[file_type.name]
            )
            operations += 1
            if not operations & 0xFFFF and telemetry_enabled():
                # Progress for the live sweep display; the modulo guard
                # keeps the untimed churn loop's cost unchanged when no
                # emitter is installed.
                emit(
                    progress_frame(
                        "allocation",
                        0.0,
                        operations=operations,
                        utilization=round(fs.utilization, 4),
                    )
                )
            try:
                if planned_op is Operation.EXTEND:
                    fs.allocate_to(
                        fs_file, fs_file.length_bytes + planned_size
                    )
                elif planned_op is Operation.TRUNCATE:
                    fs.truncate(fs_file, max(1, file_type.truncate_size_bytes))
                elif planned_op is Operation.DELETE:
                    # Positional pop of the exact object picked above
                    # (identity, not first-equal); order preserved.
                    population.pop(index)
                    fs.delete(fs_file)
                    replacement = fs.create(
                        size_hint_bytes=file_type.allocation_size_bytes,
                        tag=file_type.name,
                    )
                    population.append(replacement)
                    fs.allocate_to(
                        replacement,
                        planned_size,
                        step_bytes=_populate_step(file_type),
                    )
            except DiskFullError:
                failed = True
                break
            if auditor is not None:
                auditor.after_event(fs.sim)

    report = fs.fragmentation()
    allocator = fs.allocator
    return AllocationTestResult(
        fragmentation=report,
        operations=operations,
        average_extents_per_file=allocator.average_extents_per_file(),
        file_count=len(allocator.files),
        filled=failed,
    )
