"""Golden performance points: short TS, TP and SC runs pinned by digest.

The allocation goldens never enter the event loop, and a Figure-6 cell
is only checked by the benchmarks at scale 0.25.  These three points run
the full §3 performance test (populate, prefill, warm-up, application
and sequential phases) at scale 0.03, seed 1991, with 20 s phase caps,
and compare the canonical ``result_digest`` of each result with a
recorded value.  The digest covers both phases' throughput, the
operation counts and latencies and the disk-full count, so a change to
the engine's event order, the disk model, the workload driver or a
policy's placement under load changes it.

The TS restricted point hits the disk-full path (its users retry after
a failed allocation, which allocation tests never do), so it also pins
the grow rule's behaviour after a failed request.

A deliberate change to performance results must re-record the values
and say why.
"""

import pytest

from repro.core.comparison import selected_policies
from repro.core.configs import ExperimentConfig, SystemConfig
from repro.core.runner import ExperimentTask
from repro.serve.service import result_digest

SYSTEM = SystemConfig(scale=0.03)
SEED = 1991
CAP_MS = 20_000.0

#: (workload, policy label) -> result digest.
GOLDEN = {
    ("TS", "restricted[5 sizes, g=1, clustered]"):
        "84543ff3e967dcded5e138d30e2523e7ce8e738a8b98a7f11fa1d62f1512d279",
    ("TP", "buddy"):
        "13fa7913e0bf5efc9d51ad9bd21827d5ea9dad4fc4dc7cbe88842763649538ca",
    ("SC", "extent[3 ranges, first-fit]"):
        "c02b0d34bae3a273a378392360ec8be09ea3410695aa83d5e6f1acc7d649d983",
}


def _run(workload, label):
    (policy,) = [p for p in selected_policies(workload) if p.label == label]
    task = ExperimentTask.performance(
        ExperimentConfig(policy=policy, workload=workload, system=SYSTEM, seed=SEED),
        app_cap_ms=CAP_MS,
        seq_cap_ms=CAP_MS,
        warmup_ms=CAP_MS / 2,
    )
    return task.execute()


@pytest.mark.parametrize(
    "workload,label", sorted(GOLDEN), ids=lambda value: value
)
def test_performance_digest_matches_golden(workload, label):
    result = _run(workload, label)
    if workload == "TS":
        assert result.disk_full_events > 0
    assert result_digest(result) == GOLDEN[(workload, label)]
