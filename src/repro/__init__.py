"""repro — Read Optimized File System Designs: A Performance Evaluation.

A full reproduction of Seltzer & Stonebraker's ICDE 1991 simulation study:
an event-driven, stochastic workload simulator of a file system on a disk
array, comparing three read-optimized multiblock allocation policies
(Koch's binary buddy, the restricted buddy system, and XPRS-style extent
allocation) against a fixed-block baseline on the paper's three synthetic
workloads (time sharing, transaction processing, supercomputing).

Quickstart::

    from repro import (ExperimentConfig, SystemConfig, RestrictedPolicy,
                       run_performance_experiment)

    config = ExperimentConfig(
        policy=RestrictedPolicy(),      # 1K..16M ladder, grow 1, clustered
        workload="SC",
        system=SystemConfig(scale=0.1),  # a 280 M slice of the 2.8 G array
    )
    result = run_performance_experiment(config)
    print(f"sequential: {result.sequential.percent:.1f}% of max bandwidth")

The package layering (bottom to top): ``sim`` (event engine) → ``disk``
(drive timing + array organizations) → ``alloc`` (the policies) → ``fs``
(files) → ``workload`` (the §2.2 profiles) → ``core`` (the §3 tests and
the per-figure sweeps) → ``report`` (tables / text figures).  ``fault``
sits beside ``disk``: declarative fault plans injected into a running
simulation, with degraded-mode service on the redundant organizations.
"""

from .alloc import (
    AllocFile,
    Allocator,
    BinaryBuddyAllocator,
    Extent,
    ExtentAllocator,
    ExtentSizeConfig,
    FitPolicy,
    FixedBlockAllocator,
    FragmentationReport,
    LogStructuredAllocator,
    RestrictedBuddyAllocator,
    RestrictedBuddyConfig,
    measure_fragmentation,
)
from .core import (
    PAPER_SYSTEM,
    BuddyPolicy,
    ExperimentConfig,
    ExperimentRunner,
    ExperimentTask,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    PerformanceResult,
    RestrictedPolicy,
    SystemConfig,
    figure6,
    grow_factor_ablation,
    run_allocation_experiment,
    run_performance_experiment,
    selected_policies,
    sweep_extent_fragmentation,
    sweep_extent_performance,
    sweep_restricted_fragmentation,
    sweep_restricted_performance,
)
from .disk import (
    WREN_IV,
    DiskGeometry,
    DiskSystem,
    IoKind,
    MirroredArray,
    ParityStripedArray,
    Raid5Array,
    StripedArray,
)
from .audit import (
    AuditConfig,
    DivergenceReport,
    Fingerprint,
    InvariantAuditor,
    bisect_divergence,
)
from .errors import (
    AllocationError,
    AllocatorStateError,
    ConfigurationError,
    DataUnavailableError,
    DiskFullError,
    ExperimentError,
    FaultError,
    FileSystemError,
    InvariantViolation,
    ReproError,
    SimulationError,
    SweepInterrupted,
)
from .fault import (
    DiskFailure,
    FaultInjector,
    FaultSpec,
    FaultSummary,
    SlowDisk,
    TransientFaults,
    parse_fault_spec,
)
from .fs import FileSystem, FsFile
from .obs import (
    MetricsRegistry,
    SweepTelemetry,
    TraceData,
    Tracer,
    trace_to_chrome,
    trace_to_jsonl,
)
from .sim import RandomStream, Simulator, ThroughputMeter
from .workload import (
    Profile,
    WorkloadDriver,
    run_allocation_until_full,
    supercomputer,
    time_sharing,
    transaction_processing,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sim
    "Simulator",
    "RandomStream",
    "ThroughputMeter",
    # disk
    "DiskGeometry",
    "WREN_IV",
    "DiskSystem",
    "StripedArray",
    "MirroredArray",
    "Raid5Array",
    "ParityStripedArray",
    "IoKind",
    # alloc
    "Allocator",
    "AllocFile",
    "Extent",
    "BinaryBuddyAllocator",
    "RestrictedBuddyAllocator",
    "RestrictedBuddyConfig",
    "ExtentAllocator",
    "ExtentSizeConfig",
    "FitPolicy",
    "FixedBlockAllocator",
    "LogStructuredAllocator",
    "FragmentationReport",
    "measure_fragmentation",
    # fs
    "FileSystem",
    "FsFile",
    # workload
    "Profile",
    "time_sharing",
    "transaction_processing",
    "supercomputer",
    "WorkloadDriver",
    "run_allocation_until_full",
    # core
    "SystemConfig",
    "PAPER_SYSTEM",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentTask",
    "BuddyPolicy",
    "RestrictedPolicy",
    "ExtentPolicy",
    "FixedPolicy",
    "LogStructuredPolicy",
    "PerformanceResult",
    "run_allocation_experiment",
    "run_performance_experiment",
    "selected_policies",
    "figure6",
    "grow_factor_ablation",
    "sweep_restricted_fragmentation",
    "sweep_restricted_performance",
    "sweep_extent_fragmentation",
    "sweep_extent_performance",
    # obs
    "Tracer",
    "TraceData",
    "MetricsRegistry",
    "SweepTelemetry",
    "trace_to_chrome",
    "trace_to_jsonl",
    # fault
    "FaultSpec",
    "DiskFailure",
    "SlowDisk",
    "TransientFaults",
    "parse_fault_spec",
    "FaultInjector",
    "FaultSummary",
    # audit
    "AuditConfig",
    "InvariantAuditor",
    "Fingerprint",
    "DivergenceReport",
    "bisect_divergence",
    # errors
    "ReproError",
    "InvariantViolation",
    "ConfigurationError",
    "SimulationError",
    "AllocationError",
    "AllocatorStateError",
    "DiskFullError",
    "ExperimentError",
    "FileSystemError",
    "FaultError",
    "DataUnavailableError",
    "SweepInterrupted",
]
