"""Canonical configurations: the disk system of Table 1 and the policy
configurations swept by Figures 1–6.

Everything an experiment needs to be reconstructed lives here:
:class:`SystemConfig` (the disk array), the four :class:`PolicyConfig`
builders, the restricted-buddy ladders, and the per-workload extent-range
tables quoted verbatim from §4.3.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from ..alloc.base import Allocator
from ..alloc.buddy import BinaryBuddyAllocator
from ..alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from ..alloc.fixed import FixedBlockAllocator
from ..alloc.logstructured import LogStructuredAllocator
from ..alloc.restricted import (
    RestrictedBuddyAllocator,
    RestrictedBuddyConfig,
    ladder_from_sizes,
)
from ..disk.array import DiskSystem, StripedArray
from ..disk.geometry import WREN_IV, DiskGeometry
from ..errors import ConfigurationError
from ..fault.plan import FaultSpec
from ..sim.engine import Simulator
from ..sim.rng import RandomStream
from ..units import KIB, parse_size

#: Disk organizations :meth:`SystemConfig.build_array` can construct.
ORGANIZATIONS = ("striped", "mirrored", "raid5", "parity-striped")


@dataclass(frozen=True)
class SystemConfig:
    """The disk system: Table 1's eight Wren IVs unless overridden.

    Attributes:
        scale: capacity scale factor (cylinder count).  1.0 is the paper's
            2.8 G system; tests and quick benches shrink it.  Timing
            parameters never change with scale.
        stripe_unit: bytes per disk before striping moves on — one track
            by default, the [STON89] choice.
        disk_unit: the minimum transfer unit and the allocators' address
            granularity: "the smaller of the smallest block size supported
            by the file system and the stripe size" — 1K here.
        organization: one of :data:`ORGANIZATIONS`.  ``"striped"`` (the
            configuration behind every paper result) carries no
            redundancy; the other three are §2.1's redundant options and
            the substrate for the fault-injection experiments.  For
            ``"mirrored"``, ``n_disks`` counts one copy — the system has
            twice that many spindles.
    """

    geometry: DiskGeometry = WREN_IV
    n_disks: int = 8
    stripe_unit: str | int = 24 * KIB
    disk_unit: str | int = 1 * KIB
    scale: float = 1.0
    queue_discipline: str = "fcfs"  # or "elevator" (extension)
    organization: str = "striped"

    def __post_init__(self) -> None:
        if self.organization not in ORGANIZATIONS:
            raise ConfigurationError(
                f"unknown organization {self.organization!r}; "
                f"expected one of {', '.join(ORGANIZATIONS)}"
            )
        if self.queue_discipline not in ("fcfs", "elevator"):
            raise ConfigurationError(
                f"queue_discipline: unknown discipline "
                f"{self.queue_discipline!r}; expected 'fcfs' or 'elevator'"
            )
        if not isinstance(self.n_disks, int) or self.n_disks <= 0:
            raise ConfigurationError(
                f"n_disks: need a positive drive count, got {self.n_disks!r}"
            )
        stripe = parse_size(self.stripe_unit)
        unit = parse_size(self.disk_unit)
        if stripe <= 0:
            raise ConfigurationError(
                f"stripe_unit: must be positive, got {self.stripe_unit!r}"
            )
        if unit <= 0:
            raise ConfigurationError(
                f"disk_unit: must be positive, got {self.disk_unit!r}"
            )
        if stripe % unit:
            raise ConfigurationError(
                f"stripe_unit: {stripe} bytes is not a whole number of "
                f"{unit}-byte disk units"
            )
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ConfigurationError(
                f"scale: must be positive and finite, got {self.scale!r}"
            )
        # NaN slips through DiskGeometry's own sign checks (every
        # comparison with NaN is False), then poisons seek times and the
        # stabilization rule far from the config that caused it.
        for field_name in (
            "single_track_seek_ms",
            "incremental_seek_ms",
            "rotation_ms",
            "head_switch_ms",
        ):
            value = getattr(self.geometry, field_name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"geometry.{field_name}: must be finite, got {value!r}"
                )

    @property
    def stripe_unit_bytes(self) -> int:
        return parse_size(self.stripe_unit)

    @property
    def disk_unit_bytes(self) -> int:
        return parse_size(self.disk_unit)

    def scaled_geometry(self) -> DiskGeometry:
        """The per-drive geometry at this config's scale."""
        return self.geometry if self.scale == 1.0 else self.geometry.scaled(self.scale)

    def build_array(self, sim: Simulator) -> DiskSystem:
        """Construct the configured disk organization for a simulation run."""
        geometry = self.scaled_geometry()
        if self.organization == "striped":
            return StripedArray(
                sim,
                geometry,
                self.n_disks,
                self.stripe_unit_bytes,
                self.disk_unit_bytes,
                queue_discipline=self.queue_discipline,
            )
        from ..disk.raid import MirroredArray, ParityStripedArray, Raid5Array

        if self.organization == "mirrored":
            return MirroredArray(
                sim, geometry, self.n_disks, self.stripe_unit_bytes, self.disk_unit_bytes
            )
        if self.organization == "raid5":
            return Raid5Array(
                sim, geometry, self.n_disks, self.stripe_unit_bytes, self.disk_unit_bytes
            )
        return ParityStripedArray(sim, geometry, self.n_disks, self.disk_unit_bytes)

    @property
    def capacity_bytes(self) -> int:
        """Usable data capacity at this scale, per the organization."""
        per_drive = self.scaled_geometry().capacity_bytes
        if self.organization == "parity-striped":
            per_drive -= per_drive % self.disk_unit_bytes
            return int(per_drive * self.n_disks * (self.n_disks - 1) / self.n_disks)
        per_drive -= per_drive % self.stripe_unit_bytes
        if self.organization == "raid5":
            return per_drive * (self.n_disks - 1)
        # striped: all spindles are data; mirrored: one copy's worth.
        return per_drive * self.n_disks


#: The paper's configuration (full scale).
PAPER_SYSTEM = SystemConfig()


# ---------------------------------------------------------------------------
# Policy configurations
# ---------------------------------------------------------------------------


def _check(ok: object, name: str, expected: str, value: object) -> None:
    """Construction-time validation: configs fail here, not in a worker."""
    if not ok:
        raise ConfigurationError(f"{name}: expected {expected}, got {value!r}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_size(value: object) -> bool:
    """Whether ``value`` parses to a positive byte count."""
    if not (_is_int(value) or isinstance(value, str)):
        return False
    try:
        return parse_size(value) > 0
    except ConfigurationError:
        return False


def _is_sizes(values: object) -> bool:
    return isinstance(values, (tuple, list)) and bool(values) and all(
        map(_is_size, values)
    )


class PolicyConfig(abc.ABC):
    """A buildable, labelled allocation-policy configuration."""

    @abc.abstractmethod
    def build(
        self, capacity_units: int, disk_unit_bytes: int, rng: RandomStream
    ) -> Allocator:
        """Instantiate the allocator for a given address space."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Human-readable configuration label for reports."""


@dataclass(frozen=True)
class BuddyPolicy(PolicyConfig):
    """§4.1: Koch's binary buddy (no nightly reallocator)."""

    def build(self, capacity_units, disk_unit_bytes, rng):
        return BinaryBuddyAllocator(capacity_units, rng)

    @property
    def label(self) -> str:
        return "buddy"


@dataclass(frozen=True)
class RestrictedPolicy(PolicyConfig):
    """§4.2: the restricted buddy system."""

    block_sizes: tuple[str, ...] = ("1K", "8K", "64K", "1M", "16M")
    grow_factor: int = 1
    clustered: bool = True
    region_size: str | int = "32M"

    def __post_init__(self) -> None:
        sizes, grow = self.block_sizes, self.grow_factor
        _check(_is_sizes(sizes), "block_sizes", "a list of sizes", sizes)
        _check(
            _is_int(grow) and grow >= 1, "grow_factor",
            "an integer grow factor >= 1", grow,
        )
        _check(isinstance(self.clustered, bool), "clustered", "a boolean", self.clustered)
        _check(_is_size(self.region_size), "region_size", "a size", self.region_size)

    def build(self, capacity_units, disk_unit_bytes, rng):
        ladder = ladder_from_sizes(list(self.block_sizes), disk_unit_bytes)
        region_units = parse_size(self.region_size) // disk_unit_bytes
        config = RestrictedBuddyConfig(
            block_sizes_units=ladder,
            grow_factor=self.grow_factor,
            clustered=self.clustered,
            region_units=region_units,
        )
        return RestrictedBuddyAllocator(capacity_units, config, rng)

    @property
    def label(self) -> str:
        mode = "clustered" if self.clustered else "unclustered"
        return (
            f"restricted[{len(self.block_sizes)} sizes, g={self.grow_factor}, "
            f"{mode}]"
        )


@dataclass(frozen=True)
class ExtentPolicy(PolicyConfig):
    """§4.3: extent-based allocation."""

    range_means: tuple[str, ...] = ("512K", "1M", "16M")
    fit: str = "first"  # "first" or "best"

    def __post_init__(self) -> None:
        means = self.range_means
        _check(_is_sizes(means), "range_means", "a list of sizes", means)
        _check(self.fit in ("first", "best"), "fit", "'first' or 'best'", self.fit)

    def build(self, capacity_units, disk_unit_bytes, rng):
        means = tuple(
            sorted(parse_size(m) // disk_unit_bytes for m in self.range_means)
        )
        if any(m == 0 for m in means):
            raise ConfigurationError("extent range below one disk unit")
        fit = FitPolicy.FIRST_FIT if self.fit == "first" else FitPolicy.BEST_FIT
        return ExtentAllocator(
            capacity_units, ExtentSizeConfig(range_means_units=means), fit, rng
        )

    @property
    def label(self) -> str:
        return f"extent[{len(self.range_means)} ranges, {self.fit}-fit]"


@dataclass(frozen=True)
class FixedPolicy(PolicyConfig):
    """§5 baseline: fixed block size, no contiguity or striping bias.

    ``aged`` (default True) scrambles the initial free list, modelling the
    long-lived system the paper compares against rather than a fresh mkfs.
    """

    block_size: str | int = "4K"
    aged: bool = True

    def __post_init__(self) -> None:
        _check(_is_size(self.block_size), "block_size", "a size", self.block_size)
        _check(isinstance(self.aged, bool), "aged", "a boolean", self.aged)

    def build(self, capacity_units, disk_unit_bytes, rng):
        block_units = parse_size(self.block_size) // disk_unit_bytes
        return FixedBlockAllocator(capacity_units, block_units, rng, aged=self.aged)

    @property
    def label(self) -> str:
        return f"fixed[{self.block_size}]"


@dataclass(frozen=True)
class LogStructuredPolicy(PolicyConfig):
    """Extension (paper §6): threaded-log, write-optimized allocation."""

    def build(self, capacity_units, disk_unit_bytes, rng):
        return LogStructuredAllocator(capacity_units, rng)

    @property
    def label(self) -> str:
        return "log-structured"


# ---------------------------------------------------------------------------
# The paper's sweep tables
# ---------------------------------------------------------------------------

#: §4.2: "We consider four different block size configurations."
RESTRICTED_LADDERS: dict[int, tuple[str, ...]] = {
    2: ("1K", "8K"),
    3: ("1K", "8K", "64K"),
    4: ("1K", "8K", "64K", "1M"),
    5: ("1K", "8K", "64K", "1M", "16M"),
}

#: §4.2 sweep axes: grow factors and clustering.
RESTRICTED_GROW_FACTORS = (1, 2)
RESTRICTED_CLUSTERING = (True, False)

#: §4.3's extent-range table for the TS workload.
EXTENT_RANGES_TS: dict[int, tuple[str, ...]] = {
    1: ("4K",),
    2: ("1K", "8K"),
    3: ("1K", "8K", "1M"),
    4: ("1K", "4K", "8K", "1M"),
    5: ("1K", "4K", "8K", "16K", "1M"),
}

#: §4.3's extent-range table for TP and SC ("10" read as 10M).
EXTENT_RANGES_TP_SC: dict[int, tuple[str, ...]] = {
    1: ("512K",),
    2: ("512K", "16M"),
    3: ("512K", "1M", "16M"),
    4: ("512K", "1M", "10M", "16M"),
    5: ("10K", "512K", "1M", "10M", "16M"),
}


def extent_ranges_for(workload: str, n_ranges: int) -> tuple[str, ...]:
    """The paper's extent-range means for a workload and range count."""
    table = EXTENT_RANGES_TS if workload.upper() == "TS" else EXTENT_RANGES_TP_SC
    if n_ranges not in table:
        raise ConfigurationError(f"no {n_ranges}-range config for {workload}")
    return table[n_ranges]


# ---------------------------------------------------------------------------
# §5's selected head-to-head configurations (Figure 6)
# ---------------------------------------------------------------------------

#: "we will select a clustered configuration ... grow factor of 1 ...
#: the 5 block size configuration (1K, 8K, 64K, 1M, 16M)".
SELECTED_RESTRICTED = RestrictedPolicy(
    block_sizes=RESTRICTED_LADDERS[5], grow_factor=1, clustered=True
)

#: "we select the first fit allocation policy ... the 3 range sizes".
def selected_extent(workload: str) -> ExtentPolicy:
    """The §5 extent configuration for a given workload."""
    return ExtentPolicy(range_means=extent_ranges_for(workload, 3), fit="first")


#: "The 4K system is compared with the timesharing workload while the 16K
#: is compared for the transaction processing and supercomputer workloads."
def selected_fixed(workload: str) -> FixedPolicy:
    """The §5 fixed-block baseline for a given workload."""
    return FixedPolicy(block_size="4K" if workload.upper() == "TS" else "16K")


SELECTED_BUDDY = BuddyPolicy()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything identifying one experiment run.

    ``faults`` (default ``None``: the fault-free model, bit-identical to
    the pre-fault-subsystem code) attaches a declarative
    :class:`~repro.fault.plan.FaultSpec`; the injector's random streams
    derive from ``seed``, so a (config, seed, faults) triple is fully
    reproducible and cache-keyable like every other field.
    """

    policy: PolicyConfig
    workload: str  # "TS" | "TP" | "SC"
    system: SystemConfig = field(default_factory=SystemConfig)
    seed: int = 1991
    fill_fraction: float = 0.91
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        fill = self.fill_fraction  # profiles.build_profile's rule
        is_number = _is_int(fill) or isinstance(fill, float)
        _check(is_number and 0 < fill <= 1, "fill_fraction", "a number in (0, 1]", fill)
        organization = self.system.organization
        if (
            organization == "parity-striped"
            and self.faults is not None
            and self.faults.failures
        ):
            # Its concatenated data layout never consults a drive's
            # fault state, so a "failed" drive would keep serving.
            raise ConfigurationError(
                f"faults: the {organization} organization does not model "
                "whole-drive failures (fail:); slow: and transient: "
                "clauses are still accepted"
            )

    def describe(self) -> str:
        """One-line run description for logs and reports."""
        base = (
            f"{self.policy.label} / {self.workload} @ scale "
            f"{self.system.scale:g}, seed {self.seed}"
        )
        if self.faults is not None and not self.faults.empty:
            base += f" [faults: {self.faults.describe()}]"
        return base
