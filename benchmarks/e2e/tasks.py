"""The experiment points of the simulation workloads, built from the seed.

This module imports only ``repro.core``: the set-up probe of a
simulation workload is a fresh interpreter that imports it and builds
the workload's tasks, so ``setup_s`` times the program's imports and
task construction, not the benchmark's own imports.
"""

from __future__ import annotations

from repro.core.comparison import selected_policies
from repro.core.configs import ExperimentConfig, SystemConfig
from repro.core.runner import ExperimentTask


def fig6_tasks(workloads: tuple[str, ...], scale: float, cap_ms: float,
               seed: int) -> list[tuple[str, ExperimentTask]]:
    """``(point id, task)`` for the Figure 6 points of ``workloads``."""
    system = SystemConfig(scale=scale)
    return [
        (f"{workload}/{policy.label}", ExperimentTask.performance(
            ExperimentConfig(policy=policy, workload=workload,
                             system=system, seed=seed),
            app_cap_ms=cap_ms, seq_cap_ms=cap_ms,
        ))
        for workload in workloads
        for policy in selected_policies(workload)
    ]


def alloc_tasks(points: tuple[tuple[str, float], ...],
                seed: int) -> list[tuple[str, ExperimentTask]]:
    """``(point id, task)`` for the allocation tests of ``(workload, scale)`` points."""
    return [
        (f"{workload}/{policy.label}", ExperimentTask.allocation(
            ExperimentConfig(policy=policy, workload=workload,
                             system=SystemConfig(scale=scale), seed=seed),
        ))
        for workload, scale in points
        for policy in selected_policies(workload)
    ]
