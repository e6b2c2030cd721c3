"""Workload characterization: file types, profiles, and drivers."""

from .driver import (
    DEFAULT_LOWER_BOUND,
    DEFAULT_UPPER_BOUND,
    AllocationTestResult,
    WorkloadDriver,
    run_allocation_until_full,
)
from .filetype import AccessPattern, FileType, Operation
from .ops import (
    pick_offset,
    sample_initial_size,
    sample_rw_size,
)
from .profiles import (
    Profile,
    supercomputer,
    time_sharing,
    transaction_processing,
)

__all__ = [
    "FileType",
    "Operation",
    "AccessPattern",
    "Profile",
    "time_sharing",
    "transaction_processing",
    "supercomputer",
    "WorkloadDriver",
    "AllocationTestResult",
    "run_allocation_until_full",
    "DEFAULT_LOWER_BOUND",
    "DEFAULT_UPPER_BOUND",
    "pick_offset",
    "sample_rw_size",
    "sample_initial_size",
]
