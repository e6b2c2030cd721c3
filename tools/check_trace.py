#!/usr/bin/env python3
"""Validate a Chrome ``trace_event`` JSON document produced by ``repro trace``.

Structural invariants checked (CI runs this against a freshly generated
trace; the test suite imports :func:`validate_trace` directly):

* the document is an object with a ``traceEvents`` list;
* every event carries the required fields for its phase type;
* no negative timestamps or durations;
* every complete ("X") event that names a parent span nests strictly
  inside that parent's interval, and the parent exists on the same trace;
* every lane (tid) that carries events has a ``thread_name`` metadata
  record.

Usage::

    python tools/check_trace.py trace.json [--min-spans N] [--min-instants N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Allowed slack (microseconds) when comparing child to parent intervals.
#: Spans are emitted from the same simulated clock and rounded identically,
#: so exact containment is expected; the epsilon only forgives float
#: rounding at the final digit.
EPSILON_US = 1e-6


class TraceError(Exception):
    """A structural invariant violation in the trace document."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceError(message)


def validate_trace(document: dict) -> dict:
    """Check structural invariants; return summary stats.

    Raises :class:`TraceError` on the first violation.  Returns a dict
    with ``spans``, ``instants``, ``metadata``, and ``lanes`` counts so
    callers can assert the trace is non-trivial.
    """
    _require(isinstance(document, dict), "top level must be a JSON object")
    events = document.get("traceEvents")
    _require(isinstance(events, list), "missing traceEvents list")

    named_lanes: set[int] = set()
    used_lanes: set[int] = set()
    # span id -> (start_us, end_us), from the exporter's "args.id" field.
    intervals: dict[int, tuple[float, float]] = {}
    parents: list[tuple[int, int]] = []  # (child id, parent id)
    counts = {"spans": 0, "instants": 0, "metadata": 0}

    for position, event in enumerate(events):
        _require(isinstance(event, dict), f"event {position} is not an object")
        phase = event.get("ph")
        where = f"event {position} ({event.get('name', '?')!r})"
        if phase == "M":
            counts["metadata"] += 1
            if event.get("name") == "thread_name":
                named_lanes.add(int(event["tid"]))
            continue
        _require(phase in ("X", "i"), f"{where}: unsupported phase {phase!r}")
        timestamp = event.get("ts")
        _require(
            isinstance(timestamp, (int, float)) and not isinstance(timestamp, bool),
            f"{where}: missing numeric ts",
        )
        _require(timestamp >= 0, f"{where}: negative timestamp {timestamp}")
        used_lanes.add(int(event.get("tid", -1)))
        if phase == "i":
            counts["instants"] += 1
            continue

        counts["spans"] += 1
        duration = event.get("dur")
        _require(
            isinstance(duration, (int, float)) and not isinstance(duration, bool),
            f"{where}: complete event missing numeric dur",
        )
        _require(duration >= 0, f"{where}: negative duration {duration}")
        args = event.get("args", {})
        span_id = args.get("id")
        _require(
            isinstance(span_id, int), f"{where}: complete event missing args.id"
        )
        _require(span_id not in intervals, f"{where}: duplicate span id {span_id}")
        intervals[span_id] = (timestamp, timestamp + duration)
        parent_id = args.get("parent", 0)
        if parent_id:
            parents.append((span_id, parent_id))

    for child_id, parent_id in parents:
        _require(
            parent_id in intervals,
            f"span {child_id}: parent {parent_id} not present in trace",
        )
        child_start, child_end = intervals[child_id]
        parent_start, parent_end = intervals[parent_id]
        _require(
            child_start >= parent_start - EPSILON_US
            and child_end <= parent_end + EPSILON_US,
            f"span {child_id} [{child_start}, {child_end}] escapes parent "
            f"{parent_id} [{parent_start}, {parent_end}]",
        )

    unnamed = used_lanes - named_lanes
    _require(not unnamed, f"lanes without thread_name metadata: {sorted(unnamed)}")
    counts["lanes"] = len(used_lanes)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="Chrome trace JSON file")
    parser.add_argument(
        "--min-spans",
        type=int,
        default=1,
        help="fail if the trace has fewer complete spans than this",
    )
    parser.add_argument(
        "--min-instants",
        type=int,
        default=0,
        help="fail if the trace has fewer instant events (fault flips) "
        "than this",
    )
    args = parser.parse_args(argv)

    try:
        document = json.loads(args.trace.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_trace: cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    try:
        counts = validate_trace(document)
        if counts["spans"] < args.min_spans:
            raise TraceError(
                f"only {counts['spans']} span(s), expected >= {args.min_spans}"
            )
        if counts["instants"] < args.min_instants:
            raise TraceError(
                f"only {counts['instants']} instant(s), expected >= "
                f"{args.min_instants}"
            )
    except TraceError as exc:
        print(f"check_trace: INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        "check_trace: OK — {spans} spans, {instants} instants, "
        "{lanes} lanes, {metadata} metadata records".format(**counts)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
