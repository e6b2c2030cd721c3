"""Purpose-built data structures backing the allocators.

* :class:`SortedAddresses` / :class:`SortedPairs` — bisect-backed ordered
  indexes for successor and best-fit queries.
* :class:`FreeExtentMap` — coalescing disjoint-interval free-space map.

The restricted buddy policy's free lists and bitmap live with the policy
in :mod:`repro.alloc.freestore`.
"""

from .intervals import FreeExtentMap
from .sortedlist import SortedAddresses, SortedPairs

__all__ = [
    "FreeExtentMap",
    "SortedAddresses",
    "SortedPairs",
]
