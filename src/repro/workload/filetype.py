"""File types: the paper's Table 2 workload parameters.

"The workload is characterized in terms of file types and their reference
patterns. ... Each file type defines the size characteristics, access
patterns, and growth characteristics of a set of files."  Every field of
Table 2 appears here under the same name; two fields the table implies but
does not name are made explicit:

* ``truncate_ratio`` — Table 2 defines *Delete Ratio* as "of the
  deallocate operations, percent which are file deletes"; we carry the
  deallocate split as two explicit percentages (delete + truncate), which
  is how §2.2 quotes every workload anyway ("5% deletes and 5%
  truncates").
* ``access`` — whether reads/writes land at random offsets (TS, TP) or
  march sequentially through the file in bursts (SC).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError


class AccessPattern(enum.Enum):
    """Where within a file read/write operations land."""

    RANDOM = "random"
    SEQUENTIAL = "sequential"


class Operation(enum.Enum):
    """The operations a user event can issue against its file."""

    READ = "read"
    WRITE = "write"
    EXTEND = "extend"
    TRUNCATE = "truncate"
    DELETE = "delete"


@dataclass(frozen=True)
class FileType:
    """One row of Table 2 (plus the access pattern).

    Ratios are percentages and must sum to 100.  All sizes are in bytes,
    all times in milliseconds.
    """

    name: str
    n_files: int
    n_users: int
    process_time_ms: float
    hit_frequency_ms: float
    rw_size_bytes: int
    rw_deviation_bytes: int
    allocation_size_bytes: int
    truncate_size_bytes: int
    initial_size_bytes: int
    initial_deviation_bytes: int
    read_ratio: float
    write_ratio: float
    extend_ratio: float
    truncate_ratio: float
    delete_ratio: float
    access: AccessPattern = AccessPattern.RANDOM

    def __post_init__(self) -> None:
        if self.n_files < 0 or self.n_users <= 0:
            raise ConfigurationError(f"{self.name}: bad file or user count")
        if self.process_time_ms < 0 or self.hit_frequency_ms < 0:
            raise ConfigurationError(f"{self.name}: negative timing parameter")
        for field_name in (
            "rw_size_bytes",
            "rw_deviation_bytes",
            "allocation_size_bytes",
            "truncate_size_bytes",
            "initial_size_bytes",
            "initial_deviation_bytes",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{self.name}: negative {field_name}")
        total = (
            self.read_ratio
            + self.write_ratio
            + self.extend_ratio
            + self.truncate_ratio
            + self.delete_ratio
        )
        if not math.isclose(total, 100.0, abs_tol=1e-6):
            raise ConfigurationError(
                f"{self.name}: operation ratios sum to {total}, not 100"
            )

    # -- derived -----------------------------------------------------------

    @property
    def operation_weights(self) -> dict[Operation, float]:
        """Ratio of each operation, keyed by :class:`Operation`."""
        return {
            Operation.READ: self.read_ratio,
            Operation.WRITE: self.write_ratio,
            Operation.EXTEND: self.extend_ratio,
            Operation.TRUNCATE: self.truncate_ratio,
            Operation.DELETE: self.delete_ratio,
        }

    @property
    def allocation_weights(self) -> dict[Operation, float]:
        """Weights for the allocation test: "only the extend, truncate,
        delete, and create operations in the proportion as expressed by
        the file type parameters"."""
        return {
            Operation.EXTEND: self.extend_ratio,
            Operation.TRUNCATE: self.truncate_ratio,
            Operation.DELETE: self.delete_ratio,
        }

    @property
    def sequential_weights(self) -> dict[Operation, float]:
        """Weights for the sequential test: reads and writes only.

        A type that never reads or writes (pure log growth) defaults to
        all-reads so the test still touches its files.
        """
        if self.read_ratio + self.write_ratio <= 0:
            return {Operation.READ: 100.0, Operation.WRITE: 0.0}
        return {
            Operation.READ: self.read_ratio,
            Operation.WRITE: self.write_ratio,
        }

    @property
    def event_rate(self) -> float:
        """Relative stream of requests this type generates (users / think)."""
        if self.process_time_ms <= 0:
            return float(self.n_users)
        return self.n_users / self.process_time_ms

    def scaled_sizes(self, factor: float, floor_bytes: int = 1024) -> "FileType":
        """Copy with *file* sizes scaled by ``factor``.

        Used to shrink the big-file workloads (TP/SC) together with the
        disk so experiment shapes survive at laptop scale.  Only the
        initial file size (and its deviation) scales: request, truncate,
        and extent-hint sizes are workload properties — an 8K database
        page or a 512K supercomputer burst is the same size on a small
        disk — and scaling them would change the per-request disk
        behaviour the paper measures.  File sizes never drop below
        ``floor_bytes``.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive: {factor}")
        return replace(
            self,
            initial_size_bytes=max(
                floor_bytes, int(round(self.initial_size_bytes * factor))
            ),
            initial_deviation_bytes=int(round(self.initial_deviation_bytes * factor)),
        )
