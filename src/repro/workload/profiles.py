"""The three simulated workloads of §2.2: TS, TP, and SC.

Every number the paper states is used verbatim; the handful it omits
(user counts, think times, request sizes for the TP relations, size
deviations) are filled with documented defaults chosen to produce the
paper's qualitative load (saturating concurrency for the large-file
workloads, a small-file-dominated request mix for TS).  DESIGN.md §5
records each substitution.

Profiles are parameterized by the disk capacity and a ``scale`` factor so
the same shapes run on a laptop-sized address space: TS file sizes are
*never* scaled (8K files on 1K blocks are the point of the workload) —
only their count shrinks with capacity; TP and SC scale their big files
with the disk, preserving the file-size-to-block-size contrasts that
drive the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import KIB, MIB
from .filetype import AccessPattern, FileType


@dataclass(frozen=True)
class Profile:
    """A named set of file types driving one experiment."""

    name: str
    types: tuple[FileType, ...]

    def __post_init__(self) -> None:
        if not self.types:
            raise ConfigurationError("profile has no file types")
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate type names in {self.name}")


# ---------------------------------------------------------------------------
# TS: time sharing / software development
# ---------------------------------------------------------------------------

#: Fraction of the fill target held in small files (assumption; the paper
#: gives the *request* split — two-thirds to small files — not the
#: capacity split).
TS_SMALL_CAPACITY_SHARE = 0.7


def time_sharing(
    capacity_bytes: int,
    fill_fraction: float = 0.91,
    scale: float = 1.0,
) -> Profile:
    """The TS workload: "an abundance of small files (mean size 8K) which
    are created, read, and deleted.  Two-thirds of all requests are to
    these files.  In addition there are larger files (mean size 96K)"
    with 60 % reads, 15 % writes, 15 % extends, 5 % deletes, 5 % truncates.

    ``scale`` shrinks file *counts* (sizes stay at 8K / 96K); counts are
    solved from the capacity and fill target.
    """
    if not 0 < fill_fraction <= 1:
        raise ConfigurationError(f"bad fill fraction {fill_fraction}")
    budget = capacity_bytes * fill_fraction * scale
    small_mean = 8 * KIB
    large_mean = 96 * KIB
    n_small = max(1, int(budget * TS_SMALL_CAPACITY_SHARE / small_mean))
    n_large = max(1, int(budget * (1 - TS_SMALL_CAPACITY_SHARE) / large_mean))
    small = FileType(
        name="ts-small",
        n_files=n_small,
        n_users=16,  # 2:1 users over the large type -> two-thirds of requests
        process_time_ms=15.0,
        hit_frequency_ms=30.0,
        rw_size_bytes=8 * KIB,
        rw_deviation_bytes=2 * KIB,
        allocation_size_bytes=2 * KIB,
        truncate_size_bytes=4 * KIB,
        initial_size_bytes=small_mean,
        initial_deviation_bytes=2 * KIB,
        read_ratio=70.0,
        write_ratio=15.0,
        extend_ratio=0.0,
        truncate_ratio=0.0,
        delete_ratio=15.0,  # "created, read, and deleted"
        access=AccessPattern.RANDOM,
    )
    large = FileType(
        name="ts-large",
        n_files=n_large,
        n_users=8,
        process_time_ms=15.0,
        hit_frequency_ms=30.0,
        rw_size_bytes=8 * KIB,
        rw_deviation_bytes=4 * KIB,
        allocation_size_bytes=8 * KIB,
        truncate_size_bytes=8 * KIB,
        initial_size_bytes=large_mean,
        initial_deviation_bytes=16 * KIB,
        read_ratio=60.0,
        write_ratio=15.0,
        extend_ratio=15.0,
        truncate_ratio=5.0,
        delete_ratio=5.0,
        access=AccessPattern.RANDOM,
    )
    return Profile(name="TS", types=(small, large))


# ---------------------------------------------------------------------------
# TP: transaction processing
# ---------------------------------------------------------------------------


def transaction_processing(scale: float = 1.0) -> Profile:
    """The TP workload: "10 large files (210M) representing data files or
    relations, 5 small application logs (5M) and one transaction log
    (10M)."  Relations: 60 % random reads / 30 % writes / 7 % extends /
    3 % truncates.  Logs: mostly extends (93 % / 94 %) with periodic
    reads (2 % / 5 %) and infrequent truncates (5 % / 1 %).

    Request sizes are unstated in the paper; relations use an 8K page
    (classic TP page I/O) and the logs append 4K records.
    """
    relation = FileType(
        name="tp-relation",
        n_files=10,
        n_users=24,
        process_time_ms=10.0,
        hit_frequency_ms=20.0,
        rw_size_bytes=8 * KIB,
        rw_deviation_bytes=2 * KIB,
        allocation_size_bytes=16 * MIB,
        truncate_size_bytes=8 * KIB,
        initial_size_bytes=210 * MIB,
        initial_deviation_bytes=8 * MIB,
        read_ratio=60.0,
        write_ratio=30.0,
        extend_ratio=7.0,
        truncate_ratio=3.0,
        delete_ratio=0.0,
        access=AccessPattern.RANDOM,
    ).scaled_sizes(scale)
    app_log = FileType(
        name="tp-applog",
        n_files=5,
        n_users=5,
        process_time_ms=20.0,
        hit_frequency_ms=40.0,
        rw_size_bytes=4 * KIB,
        rw_deviation_bytes=1 * KIB,
        allocation_size_bytes=512 * KIB,
        truncate_size_bytes=32 * KIB,
        initial_size_bytes=5 * MIB,
        initial_deviation_bytes=512 * KIB,
        read_ratio=2.0,
        write_ratio=0.0,
        extend_ratio=93.0,
        truncate_ratio=5.0,
        delete_ratio=0.0,
        access=AccessPattern.SEQUENTIAL,
    ).scaled_sizes(scale)
    sys_log = FileType(
        name="tp-syslog",
        n_files=1,
        n_users=4,
        process_time_ms=15.0,
        hit_frequency_ms=30.0,
        rw_size_bytes=4 * KIB,
        rw_deviation_bytes=1 * KIB,
        allocation_size_bytes=512 * KIB,
        truncate_size_bytes=64 * KIB,
        initial_size_bytes=10 * MIB,
        initial_deviation_bytes=1 * MIB,
        # "The system log receives a slightly higher read percentage to
        # simulate periodic transaction aborts."
        read_ratio=5.0,
        write_ratio=0.0,
        extend_ratio=94.0,
        truncate_ratio=1.0,
        delete_ratio=0.0,
        access=AccessPattern.SEQUENTIAL,
    ).scaled_sizes(scale)
    return Profile(name="TP", types=(relation, app_log, sys_log))


# ---------------------------------------------------------------------------
# SC: supercomputer / complex query processing
# ---------------------------------------------------------------------------


def supercomputer(scale: float = 1.0) -> Profile:
    """The SC workload: "1 large file (500M), 15 medium sized files (100M)
    and 10 small files (10M).  The large and medium files are all read and
    written in large contiguous bursts (32K or 512K) with a predominance
    of reads (60% reads, 30% writes, 8% extends, and 2% truncates).  The
    small files are also read and written in 32K bursts, but are
    periodically deleted and recreated (60% reads, 30% writes, 5% extends,
    5% deletes)."
    """
    large = FileType(
        name="sc-large",
        n_files=1,
        n_users=3,
        process_time_ms=25.0,
        hit_frequency_ms=50.0,
        rw_size_bytes=512 * KIB,
        rw_deviation_bytes=64 * KIB,
        allocation_size_bytes=16 * MIB,
        truncate_size_bytes=512 * KIB,
        initial_size_bytes=500 * MIB,
        initial_deviation_bytes=16 * MIB,
        read_ratio=60.0,
        write_ratio=30.0,
        extend_ratio=8.0,
        truncate_ratio=2.0,
        delete_ratio=0.0,
        access=AccessPattern.SEQUENTIAL,
    ).scaled_sizes(scale)
    medium = FileType(
        name="sc-medium",
        n_files=15,
        n_users=6,
        process_time_ms=25.0,
        hit_frequency_ms=50.0,
        rw_size_bytes=512 * KIB,
        rw_deviation_bytes=64 * KIB,
        allocation_size_bytes=1 * MIB,
        truncate_size_bytes=512 * KIB,
        initial_size_bytes=100 * MIB,
        initial_deviation_bytes=8 * MIB,
        read_ratio=60.0,
        write_ratio=30.0,
        extend_ratio=8.0,
        truncate_ratio=2.0,
        delete_ratio=0.0,
        access=AccessPattern.SEQUENTIAL,
    ).scaled_sizes(scale)
    small = FileType(
        name="sc-small",
        n_files=10,
        n_users=3,
        process_time_ms=20.0,
        hit_frequency_ms=40.0,
        rw_size_bytes=32 * KIB,
        rw_deviation_bytes=8 * KIB,
        allocation_size_bytes=512 * KIB,
        truncate_size_bytes=64 * KIB,
        initial_size_bytes=10 * MIB,
        initial_deviation_bytes=1 * MIB,
        read_ratio=60.0,
        write_ratio=30.0,
        extend_ratio=5.0,
        truncate_ratio=0.0,
        delete_ratio=5.0,
        access=AccessPattern.SEQUENTIAL,
    ).scaled_sizes(scale)
    return Profile(name="SC", types=(large, medium, small))
