"""Head-to-head runs: Figure 6 (all four policies).

Figure 6 compares the §5 *selected* configurations — buddy,
restricted (5 sizes, grow 1, clustered), extent (first-fit, 3 ranges), and
the fixed-block baseline (4K for TS, 16K for TP/SC) — on sequential (6a)
and application (6b) performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configs import (
    SELECTED_BUDDY,
    SELECTED_RESTRICTED,
    ExperimentConfig,
    PolicyConfig,
    SystemConfig,
    selected_extent,
    selected_fixed,
)
from .experiments import PerformanceResult
from .runner import ExperimentRunner, ExperimentTask, execute_all

WORKLOADS = ("SC", "TP", "TS")


def selected_policies(workload: str) -> list[PolicyConfig]:
    """The four §5 contenders for a workload, in the figure's order."""
    return [
        SELECTED_BUDDY,
        SELECTED_RESTRICTED,
        selected_extent(workload),
        selected_fixed(workload),
    ]


@dataclass(frozen=True)
class ComparisonCell:
    """One (policy, workload) bar of Figure 6."""

    workload: str
    policy_label: str
    performance: PerformanceResult

    @property
    def sequential_percent(self) -> float:
        return self.performance.sequential.percent

    @property
    def application_percent(self) -> float:
        return self.performance.application.percent


def figure6(
    system: SystemConfig,
    seed: int = 1991,
    app_cap_ms: float = 300_000.0,
    seq_cap_ms: float = 300_000.0,
    workloads: tuple[str, ...] = WORKLOADS,
    runner: ExperimentRunner | None = None,
) -> list[ComparisonCell]:
    """Run the four selected policies on every workload.

    The 12 cells are independent simulations; pass a ``runner`` to fan
    them across worker processes and/or replay them from the result
    cache — cell order and values are identical either way.
    """
    pairs = [
        (workload, policy)
        for workload in workloads
        for policy in selected_policies(workload)
    ]
    tasks = [
        ExperimentTask.performance(
            ExperimentConfig(policy=policy, workload=workload, system=system, seed=seed),
            app_cap_ms=app_cap_ms,
            seq_cap_ms=seq_cap_ms,
        )
        for workload, policy in pairs
    ]
    results = execute_all(tasks, runner)
    return [
        ComparisonCell(workload, policy.label, result)
        for (workload, policy), result in zip(pairs, results)
    ]
