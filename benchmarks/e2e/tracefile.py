"""Chrome ``trace_event`` output for the traced pass.

Spans are kept in memory and written once at exit.  Each span carries
the cache key of the experiment point or request it belongs to, so the
file joins with ``repro trace`` output and ledger entries on that key.
The document passes ``tools/check_trace.validate_trace``: every span has
an integer id, children nest inside their parent, every lane is named.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class TraceWriter:
    """Collects complete ("X") spans on named lanes."""

    def __init__(self) -> None:
        self._spans: list[tuple[str, str, float, float, str, int, int]] = []
        self._lanes: dict[str, int] = {}

    def span(self, name: str, lane: str, start: float, end: float,
             key: str = "", parent: int = 0) -> int:
        """Record a span (perf-counter seconds); returns its id."""
        span_id = len(self._spans) + 1
        tid = self._lanes.setdefault(lane, len(self._lanes) + 1)
        self._spans.append((name, lane, start, end, key, parent, tid))
        return span_id

    def document(self) -> dict:
        origin = min((span[2] for span in self._spans), default=0.0)
        pid = os.getpid()
        events: list[dict] = [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": lane}}
            for lane, tid in self._lanes.items()
        ]
        for span_id, (name, _lane, start, end, key, parent, tid) in enumerate(
            self._spans, start=1
        ):
            args: dict = {"id": span_id}
            if parent:
                args["parent"] = parent
            if key:
                args["cache_key"] = key
            events.append({
                "ph": "X", "name": name, "pid": pid, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.document()))
