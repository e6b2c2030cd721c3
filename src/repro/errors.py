"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.
The allocation-related errors mirror the conditions the paper's simulator
logs: an allocation request that cannot be satisfied raises
:class:`DiskFullError`, which the experiment drivers interpret as the end of
an allocation test.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A simulation, disk, policy, or workload configuration is invalid."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class AllocationError(ReproError):
    """Base class for allocation failures."""


class AllocatorStateError(SimulationError):
    """An allocator's internal structures were driven into a bad state.

    Wraps the low-level :class:`SimulationError` raised deep in the free
    structures (``"block N already free"`` and kin) with the policy and
    the allocation operation that triggered it, so a failure surfacing
    from a long fuzz or sweep run is attributable without a debugger.

    Attributes:
        policy: the allocator's ``name``.
        op: the public allocator operation running (``"create"``,
            ``"extend"``, ``"truncate"``, ``"delete"``).
        original: the underlying error.
    """

    def __init__(self, policy: str, op: str, original: SimulationError) -> None:
        self.policy = policy
        self.op = op
        self.original = original
        super().__init__(f"[{policy}/{op}] {original}")


class DiskFullError(AllocationError):
    """An allocation request could not be satisfied.

    The paper: "If an allocation request cannot be satisfied, a disk full
    condition is logged."  Experiment drivers catch this to terminate
    allocation tests and to compute fragmentation at the moment of failure.

    Attributes:
        requested_units: size of the request that failed, in disk units.
        free_units: number of free disk units remaining in the system
            (the external fragmentation numerator).
    """

    def __init__(self, requested_units: int, free_units: int) -> None:
        self.requested_units = requested_units
        self.free_units = free_units
        super().__init__(
            f"allocation of {requested_units} units failed "
            f"with {free_units} units still free"
        )


class ExperimentError(ReproError):
    """One or more sweep points failed inside the experiment runner.

    Raised *after* the whole sweep has been given the chance to complete
    (and successful points cached), carrying every failing point's
    traceback, so a re-run only repeats the diverging configurations.
    """


class FaultError(ReproError):
    """A fault-injection plan or injector was configured incorrectly."""


class DataUnavailableError(ReproError):
    """An I/O request targets data no surviving drive can provide.

    Raised by a disk organization when a request touches a failed drive
    and redundancy cannot mask it: any access on a plain striped array,
    or a second concurrent failure on a mirror / RAID-5 row.  The
    workload driver treats it like a transient operation failure — the
    user process logs it and retries after its think time.
    """


class SweepInterrupted(ReproError):
    """A sweep was interrupted (SIGINT) after partial completion.

    Carries the result-cache directory so the CLI can tell the user
    where the finished points live — rerunning the sweep against it
    resumes where it stopped; maps to exit status 130.

    Attributes:
        partial_dir: the result cache holding every point finished before
            the interrupt, or ``None`` when caching was off and nothing
            was persisted.
        completed: sweep points that finished before the interrupt.
        total: sweep points submitted.
    """

    def __init__(
        self, partial_dir: "str | None", completed: int, total: int
    ) -> None:
        self.partial_dir = partial_dir
        self.completed = completed
        self.total = total
        where = f" (partial results flushed to {partial_dir})" if partial_dir else ""
        super().__init__(
            f"sweep interrupted after {completed}/{total} points{where}"
        )


class InvariantViolation(ReproError):
    """A runtime invariant check (:mod:`repro.audit`) failed mid-run.

    Raised by the invariant auditor when a swept check finds simulator
    state that contradicts its own bookkeeping — leaked extents, free
    units that no longer sum to capacity, a queue entry that vanished.
    These are *simulator bugs*, not user errors: the exception carries
    enough context to localize the corruption.

    Attributes:
        time_ms: simulated time when the sweep caught the violation.
        subsystem: which bookkeeping domain failed (``"alloc"``,
            ``"fs"``, ``"disk"``, ``"clock"``, ``"rng"``, ``"fault"``).
        check: the registered check name that raised.
        excerpt: a small JSON-safe snapshot of the offending state.
    """

    def __init__(
        self, time_ms: float, subsystem: str, check: str, detail: str,
        excerpt: "dict | None" = None,
    ) -> None:
        self.time_ms = time_ms
        self.subsystem = subsystem
        self.check = check
        self.detail = detail
        self.excerpt = excerpt or {}
        super().__init__(
            f"invariant {subsystem}/{check} violated at t={time_ms:g}ms: {detail}"
        )


class ServiceError(ReproError):
    """The experiment service (:mod:`repro.serve`) failed a request."""


class ServiceOverloaded(ServiceError):
    """Admission control shed a request: the queue budget is exhausted.

    Load shedding is a *success* of the overload design, not a crash:
    the service bounds its queue and tells the client when to come back
    instead of queueing unboundedly.  Maps to HTTP 429 with a
    ``Retry-After`` header.

    Attributes:
        retry_after_s: suggested client backoff, derived from observed
            service times and the current backlog.
        depth: jobs queued or running when the request was shed.
        budget: the configured admission budget.
    """

    def __init__(self, retry_after_s: float, depth: int, budget: int) -> None:
        self.retry_after_s = retry_after_s
        self.depth = depth
        self.budget = budget
        super().__init__(
            f"service overloaded: {depth} jobs against a budget of "
            f"{budget}; retry in {retry_after_s:.0f}s"
        )


class InvalidRequestError(ReproError):
    """A disk or file-system request is malformed (bad offset, size, id)."""


class FileSystemError(ReproError):
    """A file-system operation referenced a missing or deleted file."""
