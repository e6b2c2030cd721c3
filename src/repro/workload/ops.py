"""Operation selection and size sampling.

"The simulation runs by selecting the first event from the heap.  Since
each event corresponds to a file and therefore a file type, an operation
may be selected based on the read, write, extend, and delete ratios.  Then
the rw size, rw deviation, and truncate size are used to generate a size
parameter."

These helpers are pure (given a :class:`~repro.sim.rng.RandomStream`), so
the timed performance tests and the untimed allocation test share exactly
the same stochastic op stream logic.
"""

from __future__ import annotations

from ..sim.rng import PreparedWeights, RandomStream
from .filetype import AccessPattern, FileType, Operation


def prepare_weights(weights: dict[Operation, float]) -> PreparedWeights:
    """Build reusable cumulative weights for an operation-ratio dict.

    The item order is ``list(weights.keys())``: one draw selects the
    operation whose cumulative weight first exceeds it, in that order.
    """
    items = list(weights.keys())
    return PreparedWeights(items, [weights[op] for op in items])


def sample_rw_size(rng: RandomStream, file_type: FileType) -> int:
    """Request size: normal(rw size, rw deviation), at least one byte."""
    size = rng.normal(
        float(file_type.rw_size_bytes),
        float(file_type.rw_deviation_bytes),
        minimum=1.0,
    )
    return max(1, int(round(size)))


def sample_initial_size(rng: RandomStream, file_type: FileType) -> int:
    """Initial file size: "selected from a uniform distribution with mean
    equal to initial size and deviation of initial deviation"."""
    size = rng.uniform_around(
        float(file_type.initial_size_bytes),
        float(file_type.initial_deviation_bytes),
    )
    return max(1, int(round(size)))


def plan_operation(
    rng: RandomStream, file_type: FileType, weights: PreparedWeights
) -> tuple[Operation, int]:
    """Sample an operation and its size parameter for one event.

    ``weights`` comes from :func:`prepare_weights`.  The drivers call
    this once per simulated operation, so it returns the plain
    ``(op, size)`` pair.
    """
    op = rng.weighted_choice_prepared(weights)
    if op is Operation.READ or op is Operation.WRITE or op is Operation.EXTEND:
        return op, sample_rw_size(rng, file_type)
    if op is Operation.TRUNCATE:
        return op, max(1, file_type.truncate_size_bytes)
    # DELETE: size is the replacement file's initial size
    return op, sample_initial_size(rng, file_type)


def pick_offset(
    rng: RandomStream,
    file_type: FileType,
    length_bytes: int,
    cursor_bytes: int,
    size_bytes: int,
) -> tuple[int, int]:
    """Choose a read/write offset; returns ``(offset, new cursor)``.

    Random types land uniformly (the whole request stays inside the file
    when it fits); sequential types march a per-file cursor forward in
    bursts, wrapping at end of file.
    """
    if length_bytes <= 0:
        return 0, 0
    if file_type.access is AccessPattern.SEQUENTIAL:
        offset = cursor_bytes if cursor_bytes < length_bytes else 0
        new_cursor = offset + size_bytes
        if new_cursor >= length_bytes:
            new_cursor = 0
        return offset, new_cursor
    high = max(0, length_bytes - size_bytes)
    return rng.uniform_int(0, high), cursor_bytes
