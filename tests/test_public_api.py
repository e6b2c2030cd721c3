"""The public API surface: everything in ``__all__`` exists and imports."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points_callable(self):
        assert callable(repro.run_allocation_experiment)
        assert callable(repro.run_performance_experiment)
        assert callable(repro.figure6)
        assert callable(repro.grow_factor_ablation)

    def test_policy_configs_constructible(self):
        assert repro.BuddyPolicy().label == "buddy"
        assert repro.RestrictedPolicy().label.startswith("restricted")
        assert repro.ExtentPolicy().label.startswith("extent")
        assert repro.FixedPolicy().label.startswith("fixed")

    def test_paper_system_constant(self):
        assert repro.PAPER_SYSTEM.n_disks == 8
        assert repro.PAPER_SYSTEM.scale == 1.0

    def test_profiles_by_paper_name(self):
        capacity = repro.PAPER_SYSTEM.capacity_bytes
        assert repro.time_sharing(capacity).name == "TS"
        assert repro.transaction_processing().name == "TP"
        assert repro.supercomputer().name == "SC"


class TestSubpackageDocstrings:
    """Every public module documents itself (release hygiene)."""

    def test_module_docstrings(self):
        import repro.alloc
        import repro.core
        import repro.disk
        import repro.fault
        import repro.fs
        import repro.report
        import repro.sim
        import repro.structures
        import repro.workload

        for module in (
            repro,
            repro.sim,
            repro.disk,
            repro.fault,
            repro.alloc,
            repro.fs,
            repro.workload,
            repro.core,
            repro.report,
            repro.structures,
        ):
            assert module.__doc__ and len(module.__doc__) > 20, module
