"""Test oracles: slow, structurally independent implementations whose
answers define correctness for the production code they mirror.

* :mod:`.reference` — the pre-rewrite restricted-buddy free store
  (:class:`~tests.oracles.reference.ReferenceLadderFreeStore`), the
  differential oracle for :class:`repro.alloc.freestore.LadderFreeStore`.
* :mod:`.buddy` — Koch's per-order binary buddy free lists
  (:class:`~tests.oracles.buddy.ReferenceBuddyStore`), the differential
  oracle for the binary buddy policy's power-of-two ladder store.
* :mod:`.dll` — the paper's sorted circular doubly-linked free list it
  is built on.
* :mod:`.bitmap` — its bitmap over maximum-size blocks.

Alongside them, :mod:`.profiles` holds ``mini``, a small mixed workload
the driver tests run on.
"""
