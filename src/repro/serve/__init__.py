"""The resilient experiment service (``repro serve``).

A long-running daemon that accepts experiment and sweep requests over
HTTP/JSON and executes them on the same supervised worker machinery,
and with the same worker function, that local sweeps use.  The package
splits cleanly:

* :mod:`~repro.serve.codec` — the JSON wire format for task specs
  (strict validation; the round trip preserves cache keys).
* :mod:`~repro.serve.ledger` — the durable accept/done journal that
  makes a SIGKILL'd daemon recoverable.
* :mod:`~repro.serve.service` — admission control, single-flight dedup,
  the engine thread, telemetry fan-out.
* :mod:`~repro.serve.http` — the stdlib ``http.server`` front door
  (submission, status, SSE streaming, chaos drills).
"""

from .codec import spec_to_task, task_to_spec
from .http import ServeDaemon, make_daemon
from .ledger import LedgerEntry, RunLedger
from .service import (
    ExperimentService,
    Job,
    result_digest,
    result_summary,
)

__all__ = [
    "ExperimentService",
    "Job",
    "LedgerEntry",
    "RunLedger",
    "ServeDaemon",
    "make_daemon",
    "result_digest",
    "result_summary",
    "spec_to_task",
    "task_to_spec",
]
