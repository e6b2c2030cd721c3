"""Durable run ledger: the service's crash-recovery record.

The ledger is the service's only journal: it records work that was
accepted but is not yet done.  Results themselves live in the result
cache, keyed like every local sweep's.  The ledger is an append-only
JSONL file in the service's state directory:

* ``{"op": "accept", "key": K, "spec": {...}, "priority": P}`` — a
  request passed admission.  Written (and fsynced) *before* the job is
  queued, so a daemon killed at any later instant knows the job existed.
* ``{"op": "done", "key": K, "status": "ok"}`` — the result is safely in
  the result store.  ``status: "error"`` records a *deterministic* task
  failure (the simulation raises identically every time), so a restart
  reports it instead of re-running it forever.

Recovery is a replay: accepted keys without a ``done`` record are the
in-flight jobs a crash orphaned; their specs rebuild the exact tasks
(the codec round-trip preserves cache keys) and the simulation's
determinism makes the re-run bit-identical.  A crash mid-append leaves a
torn final line; :meth:`RunLedger.open` truncates the file back to the
last complete record — losing at most the one record whose write was in
flight, never corrupting the prefix.

On every open the replayed state is compacted into a fresh ledger
(:func:`~repro.core.runner.atomic_write`): completed work collapses to
``done`` stubs so the file stays proportional to history the service
still needs, not to lifetime request count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.runner import atomic_write
from ..errors import ServiceError


@dataclass
class LedgerEntry:
    """Replayed state of one accepted key."""

    key: str
    spec: dict
    priority: int = 1
    done: bool = False
    error: str | None = None
    extra: dict = field(default_factory=dict)


class RunLedger:
    """Append-only, fsynced accept/done journal with torn-tail recovery."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "ledger.jsonl"
        self._handle = None
        self.recovered_bytes = 0  # torn bytes dropped by the last open

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> dict[str, LedgerEntry]:
        """Replay the journal, repair any torn tail, compact, reopen.

        Returns the replayed entries by key (insertion = acceptance
        order, which preserves FIFO fairness across a restart).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        entries = self._replay()
        self._compact(entries)
        self._handle = open(self.path, "a", encoding="utf-8")
        return entries

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- appends -------------------------------------------------------------

    def accept(
        self, key: str, spec: dict, priority: int = 1, **extra: Any
    ) -> None:
        """Record an admitted request (durable before it may execute)."""
        self._append(_accept_line(key, spec, priority, extra))

    def done(self, key: str, error: str | None = None) -> None:
        """Record a completed (or deterministically failed) request."""
        self._append(_done_line(key, error))

    def _append(self, line: str) -> None:
        if self._handle is None:
            raise ServiceError("ledger is not open")
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- replay / repair -----------------------------------------------------

    def _replay(self) -> dict[str, LedgerEntry]:
        entries: dict[str, LedgerEntry] = {}
        try:
            blob = self.path.read_bytes()
        except OSError:
            return entries
        good_end = 0
        for raw_line in blob.splitlines(keepends=True):
            if not raw_line.endswith(b"\n"):
                break  # torn tail: the append was cut mid-record
            try:
                record = json.loads(raw_line)
            except ValueError:
                break  # garbage line: everything after it is suspect
            if not isinstance(record, dict):
                break
            self._apply(record, entries)
            good_end += len(raw_line)
        self.recovered_bytes = len(blob) - good_end
        return entries

    @staticmethod
    def _apply(record: dict, entries: dict[str, LedgerEntry]) -> None:
        op = record.get("op")
        key = record.get("key")
        if not isinstance(key, str):
            return
        if op == "accept":
            spec = record.get("spec")
            if not isinstance(spec, dict):
                return
            extra = {
                k: v
                for k, v in record.items()
                if k not in ("op", "key", "spec", "priority")
            }
            entries[key] = LedgerEntry(
                key=key,
                spec=spec,
                priority=int(record.get("priority", 1)),
                extra=extra,
            )
        elif op == "done" and key in entries:
            entries[key].done = True
            if record.get("status") == "error":
                entries[key].error = str(record.get("error", "unknown error"))

    def _compact(self, entries: dict[str, LedgerEntry]) -> None:
        """Rewrite the journal from replayed state (atomic + fsynced)."""
        lines = []
        for entry in entries.values():
            lines.append(
                _accept_line(entry.key, entry.spec, entry.priority, entry.extra)
            )
            if entry.done:
                lines.append(_done_line(entry.key, entry.error))
        atomic_write(self.path, "".join(lines).encode("utf-8"))


def _accept_line(key: str, spec: dict, priority: int, extra: dict) -> str:
    record = {"op": "accept", "key": key, "spec": spec, "priority": priority}
    record.update(extra)
    return json.dumps(record, sort_keys=True) + "\n"


def _done_line(key: str, error: str | None) -> str:
    record = {"op": "done", "key": key, "status": "ok" if error is None else "error"}
    if error is not None:
        record["error"] = error
    return json.dumps(record, sort_keys=True) + "\n"
