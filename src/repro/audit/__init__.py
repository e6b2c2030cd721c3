"""State-integrity subsystem: invariant auditor, fingerprints, bisector.

Three layers, built on the same sampling cadence:

* :class:`InvariantAuditor` (:mod:`repro.audit.invariants`) — swept
  per-subsystem cross-checks of simulator bookkeeping; violations raise
  :class:`~repro.errors.InvariantViolation`.
* canonical fingerprints (:mod:`repro.audit.fingerprint`) — sha256
  digests of the full deterministic state, recorded as a timeline.
* the divergence bisector (:mod:`repro.audit.bisect`) — replays two
  runs and binary-searches their fingerprint timelines down to the
  first diverging event.

All of it defaults off: a simulator without an attached auditor runs
the engine's one run loop with no per-event audit call, at the same
speed as one predating this package (``tools/check_overhead.py``
enforces the claim in CI).
"""

from .bisect import DivergenceReport, bisect_divergence, compare_timelines
from .fingerprint import Fingerprint, canonical_digest, capture_state
from .invariants import AuditConfig, InvariantAuditor

__all__ = [
    "AuditConfig",
    "DivergenceReport",
    "Fingerprint",
    "InvariantAuditor",
    "bisect_divergence",
    "canonical_digest",
    "capture_state",
    "compare_timelines",
]
