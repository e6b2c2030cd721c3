"""The benchmark's workloads by name."""

from __future__ import annotations

from typing import Any, Callable

from .serve_mix import ServeWorkload
from .simulation import AllocWorkload, Fig6Workload

WORKLOADS: dict[str, Callable[[], Any]] = {
    "fig6_ts": lambda: Fig6Workload("fig6_ts", ("TS",)),
    "fig6_tpsc": lambda: Fig6Workload("fig6_tpsc", ("TP", "SC")),
    "alloc_tests": AllocWorkload,
    "serve_mix": ServeWorkload,
}
