"""Golden allocation decisions: TS and TP allocation tests pinned by digest.

Each point runs the §5 allocation test (populate until the first
allocation failure, then churn) for one policy on TS at scale 0.03,
seed 1991, and compares the canonical ``result_digest`` of its result
with a recorded value.  The digest covers the fragmentation report, the
operation count and the mean extents per file, so any changed placement
decision changes it.  The determinism matrix only checks that two runs
agree with each other; this test checks that they agree with the code
the values were recorded on.

At this scale the TS population fills the disk before churn starts, so
these points pin the populate path: the grow loop, chunked requests and
every policy's placement from an empty disk.  First fit and best fit
agree there (a fresh map has one hole), and the test keeps both so a
change to either take path shows.

The TP points at scale 0.25 reach churn: buddy, extent and fixed run
tens of thousands of deletes and regrows on a full disk after populate,
so they pin the release, coalescing and split paths too.  (Restricted
fills the disk during populate at this scale and runs no churn.)

A deliberate change to allocation decisions must re-record the values
and say why.
"""

import dataclasses

import pytest

from repro.core.comparison import selected_extent, selected_policies
from repro.core.configs import ExperimentConfig, SystemConfig
from repro.core.runner import ExperimentTask
from repro.serve.service import result_digest

SYSTEM = SystemConfig(scale=0.03)
SEED = 1991

POLICIES = selected_policies("TS") + [
    dataclasses.replace(selected_extent("TS"), fit="best")
]

GOLDEN = {
    "buddy":
        "60603f869e69fb869dd22a69a311a262c1dcbe2fdd2b56edbe6c87ab52ffff66",
    "restricted[5 sizes, g=1, clustered]":
        "a0e81168298f1fcab4d11bee1ca39c66882ff8b7b9e91a739744a6ce196f6700",
    "extent[3 ranges, first-fit]":
        "df030f28e69926e8d825178cfe2c19fd3ca6fb476edce65733321f4f86e85afb",
    "fixed[4K]":
        "df2d509782b62912457d62364b09b4dc420872df88bb614203bd7ca27ca9194d",
    "extent[3 ranges, best-fit]":
        "df030f28e69926e8d825178cfe2c19fd3ca6fb476edce65733321f4f86e85afb",
}

CHURN_SYSTEM = SystemConfig(scale=0.25)
CHURN_POLICIES = selected_policies("TP")

CHURN_GOLDEN = {
    "buddy":
        "5fca599d8e53e0491603fb5b9d9fd0d848874c4a42fff803fcde715875c5cc6d",
    "restricted[5 sizes, g=1, clustered]":
        "36ac5d6351b3b53c326a44902f7552fa9181b0b593af08c1c04da93b86f8c366",
    "extent[3 ranges, first-fit]":
        "7e282b0190427a1b4f611aec0e50a5cb84ac30d6e9279c5689f069e8629ffdb7",
    "fixed[16K]":
        "8743df97eecbf0d2b6a52e2fc468702b60c16388f5780eec2df4a3d623807c8d",
}


def test_golden_covers_every_policy():
    assert sorted(GOLDEN) == sorted(policy.label for policy in POLICIES)
    assert sorted(CHURN_GOLDEN) == sorted(p.label for p in CHURN_POLICIES)


def _digest(policy, workload, system):
    task = ExperimentTask.allocation(
        ExperimentConfig(policy=policy, workload=workload, system=system, seed=SEED)
    )
    return result_digest(task.execute())


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label)
def test_allocation_digest_matches_golden(policy):
    assert _digest(policy, "TS", SYSTEM) == GOLDEN[policy.label]


@pytest.mark.parametrize("policy", CHURN_POLICIES, ids=lambda p: p.label)
def test_churn_digest_matches_golden(policy):
    assert _digest(policy, "TP", CHURN_SYSTEM) == CHURN_GOLDEN[policy.label]
