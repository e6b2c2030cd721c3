"""Golden allocation decisions: TS allocation tests pinned by digest.

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
change to either take path shows.  A deliberate change to allocation
decisions must re-record the values and say why.
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


def test_golden_covers_every_policy():
    assert sorted(GOLDEN) == sorted(policy.label for policy in POLICIES)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label)
def test_allocation_digest_matches_golden(policy):
    task = ExperimentTask.allocation(
        ExperimentConfig(policy=policy, workload="TS", system=SYSTEM, seed=SEED)
    )
    assert result_digest(task.execute()) == GOLDEN[policy.label]
