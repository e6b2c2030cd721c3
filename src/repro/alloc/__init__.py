"""Allocation policies: the systems under evaluation.

* :class:`BinaryBuddyAllocator` — Koch's buddy system (§4.1).
* :class:`RestrictedBuddyAllocator` — the restricted buddy system (§4.2).
* :class:`ExtentAllocator` — the XPRS extent-based system (§4.3).
* :class:`FixedBlockAllocator` — the 4K/16K fixed-block baseline (§5).

plus the shared :class:`Allocator` interface, :class:`Extent`, and the
fragmentation metrics of §3.
"""

from .base import AllocFile, Allocator, Extent
from .buddy import BinaryBuddyAllocator
from .extent import (
    DEVIATION_FRACTION,
    ExtentAllocator,
    ExtentSizeConfig,
    FitPolicy,
)
from .fixed import FixedBlockAllocator
from .logstructured import LogStructuredAllocator
from .freestore import LadderFreeStore
from .metrics import FragmentationReport, measure_fragmentation
from .restricted import (
    DEFAULT_REGION_BYTES,
    RestrictedBuddyAllocator,
    RestrictedBuddyConfig,
    ladder_from_sizes,
)

__all__ = [
    "Allocator",
    "AllocFile",
    "Extent",
    "BinaryBuddyAllocator",
    "RestrictedBuddyAllocator",
    "RestrictedBuddyConfig",
    "DEFAULT_REGION_BYTES",
    "ladder_from_sizes",
    "ExtentAllocator",
    "ExtentSizeConfig",
    "FitPolicy",
    "DEVIATION_FRACTION",
    "FixedBlockAllocator",
    "LogStructuredAllocator",
    "LadderFreeStore",
    "FragmentationReport",
    "measure_fragmentation",
]
