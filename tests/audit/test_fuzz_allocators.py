"""Config fuzz: every policy, driven to allocation failure, under audit.

45 seeded (policy, workload, seed) combinations run the allocation test
with ``fill_fraction=1.0`` — churn continues until the first allocation
failure — with the invariant auditor sweeping every 100 operations plus
at the end.  A single conservation, extent-map, or ledger violation
anywhere fails the run; the assertion is simply that none occurs.
"""

import pytest

from repro import (
    AuditConfig,
    BuddyPolicy,
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
    SystemConfig,
)
from repro.core.experiments import run_allocation_experiment

POLICIES = [
    BuddyPolicy(),
    RestrictedPolicy(),
    ExtentPolicy(),
    FixedPolicy(),
    LogStructuredPolicy(),
]
WORKLOADS = ["TS", "TP", "SC"]
SEEDS = [3, 1991, 86_028_121]

CASES = [
    (policy, workload, seed)
    for policy in POLICIES
    for workload in WORKLOADS
    for seed in SEEDS
]
assert len(CASES) == 45


@pytest.mark.parametrize(
    "policy,workload,seed",
    CASES,
    ids=[f"{p.label}-{w}-{s}" for p, w, s in CASES],
)
def test_allocation_to_failure_is_violation_free(policy, workload, seed):
    config = ExperimentConfig(
        policy=policy,
        workload=workload,
        system=SystemConfig(scale=0.005),
        seed=seed,
    )
    result = run_allocation_experiment(
        config,
        fill_fraction=1.0,
        audit=AuditConfig(cadence_events=100),
    )
    # Reaching here means every sweep passed; sanity-check the run did
    # real work before its first failure.
    assert result.file_count > 0


class TestFailurePathAttribution:
    """When an allocator *does* blow up, the error must name the policy
    and the public operation — a bare "block N already free" surfacing
    from a 45-config grid is unattributable."""

    def _restricted(self):
        from repro.alloc.restricted import (
            RestrictedBuddyAllocator,
            RestrictedBuddyConfig,
        )

        config = RestrictedBuddyConfig(block_sizes_units=(1, 8, 64))
        return RestrictedBuddyAllocator(10_000, config)

    def test_structural_error_carries_policy_and_op(self):
        from repro.errors import AllocatorStateError, SimulationError

        allocator = self._restricted()
        handle = allocator.create()
        allocator.extend(handle, 8)
        # Corrupt the handle: duplicate its extent so delete frees twice.
        handle.extents.append(handle.extents[0])
        with pytest.raises(AllocatorStateError) as excinfo:
            allocator.delete(handle)
        error = excinfo.value
        assert error.policy == "restricted-buddy"
        assert error.op == "delete"
        assert isinstance(error.original, SimulationError)
        assert "double free" in str(error.original)
        assert "[restricted-buddy/delete]" in str(error)

    def test_wrapped_error_not_double_wrapped(self):
        from repro.errors import AllocatorStateError

        allocator = self._restricted()
        handle = allocator.create()
        allocator.extend(handle, 8)
        handle.extents.append(handle.extents[0])
        with pytest.raises(AllocatorStateError) as excinfo:
            allocator.delete(handle)
        assert not isinstance(excinfo.value.original, AllocatorStateError)
        assert str(excinfo.value).count("[restricted-buddy") == 1
