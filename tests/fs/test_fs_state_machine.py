"""Stateful property test of the file-system layer over every policy.

A Hypothesis :class:`RuleBasedStateMachine` drives a small file system
through create / allocate_to / truncate / delete / reorganize and timed
write-then-read requests that run to completion in the simulator, under
FCFS and elevator queues.  After every step it checks:

* per-unit ownership — every live file's extents and descriptor are
  disjoint and together account for ``allocator.allocated_units``
  (the model in :mod:`tests.alloc.test_differential`);
* each live file's ``ExtentMap.runs`` over the whole allocation equals
  its extents with physically adjacent ones merged;
* the invariant auditor's allocator, fs and disk checks.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import (
    BuddyPolicy,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
)
from repro.audit.invariants import AuditConfig, InvariantAuditor
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.errors import DiskFullError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB
from tests.alloc.test_differential import _owned_units

POLICIES = {
    "buddy": BuddyPolicy(),
    "restricted": RestrictedPolicy(
        block_sizes=("1K", "8K", "64K"), region_size="512K"
    ),
    "extent": ExtentPolicy(range_means=("16K", "64K")),
    "fixed": FixedPolicy(),
    "lfs": LogStructuredPolicy(),
}

#: Byte sizes up to a sixth of the 6 MB array, so a handful of large
#: files fills it and the disk-full paths run too.
SIZES = st.integers(min_value=1, max_value=1024 * KIB)
PICK = st.integers(min_value=0, max_value=10_000)


def merged(extents):
    """Extents as ``(start, length)`` runs, physically adjacent ones joined."""
    runs: list[tuple[int, int]] = []
    for extent in extents:
        if runs and runs[-1][0] + runs[-1][1] == extent.start:
            runs[-1] = (runs[-1][0], runs[-1][1] + extent.length)
        else:
            runs.append((extent.start, extent.length))
    return runs


class FileSystemMachine(RuleBasedStateMachine):
    policy = "buddy"
    discipline = "fcfs"

    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        array = StripedArray(
            self.sim, TINY_DISK, 4, 8 * KIB, KIB,
            queue_discipline=self.discipline,
        )
        allocator = POLICIES[self.policy].build(
            array.capacity_units, KIB, RandomStream(7)
        )
        self.fs = FileSystem(self.sim, array, allocator)
        self.auditor = InvariantAuditor(AuditConfig())
        self.auditor.observe(fs=self.fs, array=array, allocator=allocator)
        self.live = []

    def _pick(self, index):
        return self.live[index % len(self.live)]

    @rule(hint=st.integers(min_value=0, max_value=256 * KIB))
    def create(self, hint):
        try:
            self.live.append(self.fs.create(size_hint_bytes=hint))
        except DiskFullError:
            pass

    @precondition(lambda self: self.live)
    @rule(index=PICK, length=SIZES,
          step=st.one_of(st.none(), st.integers(min_value=1, max_value=64 * KIB)))
    def allocate_to(self, index, length, step):
        fs_file = self._pick(index)
        try:
            self.fs.allocate_to(fs_file, length, step_bytes=step)
        except DiskFullError:
            pass
        assert fs_file.length_bytes <= fs_file.allocated_units * KIB

    @precondition(lambda self: self.live)
    @rule(index=PICK, n_bytes=SIZES)
    def truncate(self, index, n_bytes):
        fs_file = self._pick(index)
        before = fs_file.length_bytes
        removed = self.fs.truncate(fs_file, n_bytes)
        assert removed == min(n_bytes, before)
        assert fs_file.length_bytes == before - removed

    @precondition(lambda self: self.live)
    @rule(index=PICK)
    def delete(self, index):
        fs_file = self.live.pop(index % len(self.live))
        self.fs.delete(fs_file)

    @rule(max_extents=st.integers(min_value=1, max_value=4))
    def reorganize(self, max_extents):
        reshaped = self.fs.reorganize(max_extents=max_extents)
        if self.policy != "buddy":
            assert reshaped == 0

    @precondition(lambda self: self.live)
    @rule(index=PICK, offset=st.integers(min_value=0, max_value=512 * KIB),
          n_bytes=st.integers(min_value=1, max_value=128 * KIB))
    def write_then_read(self, index, offset, n_bytes):
        fs_file = self._pick(index)
        fs = self.fs
        before = fs_file.length_bytes
        outcome = {}

        def user():
            try:
                outcome["written"] = yield from fs.write(fs_file, offset, n_bytes)
            except DiskFullError:
                pass
            outcome["read"] = yield from fs.read_whole(fs_file)

        self.sim.process(user())
        self.sim.run()
        if "written" in outcome:
            assert outcome["written"] == n_bytes
            assert fs_file.length_bytes == max(
                before, min(offset, before) + n_bytes
            )
        assert outcome["read"] == fs_file.length_bytes
        for drive in fs.disk.drives:
            assert drive.queue_depth == 0 and not drive.busy

    @invariant()
    def ownership_is_disjoint_and_accounted(self):
        allocator = self.fs.allocator
        claimed: set[int] = set()
        total = 0
        for fs_file in self.live:
            units = _owned_units(fs_file.handle)
            assert not units & claimed, "two files own the same unit"
            claimed |= units
            total += len(units)
        assert total == allocator.allocated_units
        assert sorted(allocator.files) == sorted(
            fs_file.handle.file_id for fs_file in self.live
        )

    @invariant()
    def runs_are_the_merged_extents(self):
        for fs_file in self.live:
            handle = fs_file.handle
            total = sum(extent.length for extent in handle.extents)
            assert total == handle.allocated_units
            if total:
                assert fs_file.extmap.runs(0, total) == merged(handle.extents)

    @invariant()
    def auditor_checks_pass(self):
        self.auditor.sweep(self.sim, fingerprint=False)


def _machine_test(policy: str, discipline: str):
    machine = type(
        f"FileSystemMachine_{policy}_{discipline}",
        (FileSystemMachine,),
        {"policy": policy, "discipline": discipline},
    )
    machine.TestCase.settings = settings(
        max_examples=6, stateful_step_count=20, deadline=None
    )
    return machine.TestCase


for _policy in POLICIES:
    for _discipline in ("fcfs", "elevator"):
        _case = _machine_test(_policy, _discipline)
        globals()[f"TestFileSystem_{_policy}_{_discipline}"] = _case
del _policy, _discipline, _case
