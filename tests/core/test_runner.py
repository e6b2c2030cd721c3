"""Tests for the parallel experiment runner and on-disk result cache."""

import pytest

from repro.core.configs import (
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    SystemConfig,
)
from repro.core.runner import (
    ExperimentRunner,
    ExperimentTask,
    ResultCache,
    execute_all,
)
from repro.core.sweeps import sweep_extent_fragmentation
from repro.errors import ConfigurationError, ExperimentError

TINY = SystemConfig(scale=0.02)


def tiny_config(seed=7, workload="SC", policy=None):
    policy = policy or ExtentPolicy(range_means=("64K", "1M"))
    return ExperimentConfig(
        policy=policy, workload=workload, system=TINY, seed=seed
    )


def tiny_task(seed=7, workload="SC", policy=None):
    return ExperimentTask.allocation(
        tiny_config(seed, workload, policy), max_operations=100_000
    )


class TestCacheKey:
    def test_stable_across_constructions(self):
        assert tiny_task().cache_key == tiny_task().cache_key

    def test_differs_by_seed_workload_and_policy(self):
        base = tiny_task().cache_key
        assert tiny_task(seed=8).cache_key != base
        assert tiny_task(workload="TS").cache_key != base
        assert tiny_task(policy=FixedPolicy("4K")).cache_key != base

    def test_differs_by_kind_and_kwargs(self):
        config = tiny_config()
        alloc = ExperimentTask.allocation(config)
        perf = ExperimentTask.performance(config)
        assert alloc.cache_key != perf.cache_key
        capped = ExperimentTask.performance(config, app_cap_ms=1000.0)
        assert capped.cache_key != perf.cache_key

    def test_kwarg_order_and_none_values_ignored(self):
        config = tiny_config()
        a = ExperimentTask.performance(config, app_cap_ms=1.0, seq_cap_ms=2.0)
        b = ExperimentTask.performance(config, seq_cap_ms=2.0, app_cap_ms=1.0)
        assert a.cache_key == b.cache_key
        bare = ExperimentTask.allocation(config)
        nulled = ExperimentTask.allocation(config, fill_fraction=None)
        assert bare.cache_key == nulled.cache_key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentTask("bogus", tiny_config())


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"x": 1})
        assert cache.load("abc") == {"x": 1}

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).load("missing") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # Each payload trips a different pickle exception type
        # (UnpicklingError, ValueError via the GET opcode, EOFError).
        cache = ResultCache(tmp_path)
        for i, garbage in enumerate(
            [b"not a pickle", b"garbage not json\n", b""]
        ):
            cache.path(f"bad{i}").write_bytes(garbage)
            assert cache.load(f"bad{i}") is None


class TestCacheStats:
    def test_counters_track_hits_misses_evictions(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.load("absent")  # miss
        cache.store("abc", 1)
        cache.load("abc")  # hit
        cache.path("bad").write_bytes(b"corrupt")
        cache.load("bad")  # miss + eviction
        assert cache.metrics.counters == {
            "core.cache_hits": 1,
            "core.cache_misses": 2,
            "core.cache_evictions": 1,
        }
        assert not cache.path("bad").exists()

    def test_stats_line_pluralization(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        summary = runner.summary().splitlines()
        assert summary[1] == "runner: cache: 0 hits, 0 misses, 0 evicted"
        runner.cache.store("abc", 1)
        runner.cache.load("abc")
        runner.cache.load("absent")
        summary = runner.summary().splitlines()
        assert summary[1] == "runner: cache: 1 hit, 1 miss, 0 evicted"

    def test_summary_without_a_cache_has_no_cache_line(self):
        runner = ExperimentRunner()
        runner.run([tiny_task()])
        [line] = runner.summary().splitlines()
        assert line.startswith("runner: 1 executed, 0 cached, 0 failed (")

    def test_runner_counts_cache_traffic(self, tmp_path):
        task = tiny_task()
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        counters = runner.metrics.counters
        runner.run([task])
        assert (counters["core.cache_hits"], counters["core.cache_misses"]) == (0, 1)
        runner.run([task])
        assert (counters["core.cache_hits"], counters["core.cache_misses"]) == (1, 1)


class TestSerialRunner:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=-3)

    def test_zero_jobs_means_all_cpus(self):
        assert ExperimentRunner(jobs=0).jobs >= 1

    def test_outcomes_in_submission_order(self):
        runner = ExperimentRunner()
        tasks = [tiny_task(seed=s) for s in (1, 2, 3)]
        outcomes = runner.run(tasks)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.result is not None for o in outcomes)
        assert runner.metrics.counters["core.executed"] == 3
        assert runner.metrics.counters["core.cache_hits"] == 0

    def test_warm_cache_executes_nothing(self, tmp_path):
        tasks = [tiny_task(seed=s) for s in (1, 2)]
        cold = ExperimentRunner(cache_dir=tmp_path)
        first = cold.run(tasks)
        assert cold.metrics.counters["core.executed"] == 2
        warm = ExperimentRunner(cache_dir=tmp_path)
        second = warm.run(tasks)
        assert warm.metrics.counters["core.executed"] == 0
        assert warm.metrics.counters["core.cache_hits"] == 2
        assert all(o.from_cache for o in second)
        assert [o.result for o in first] == [o.result for o in second]

    def test_no_cache_dir_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(cache_dir=None)
        assert runner.cache is None
        runner.run([tiny_task()])
        runner.run([tiny_task()])
        assert runner.metrics.counters["core.executed"] == 2
        assert list(tmp_path.iterdir()) == []

    def test_progress_callback_sees_every_point(self):
        seen = []
        runner = ExperimentRunner(progress=lambda o, done, total: seen.append((done, total)))
        runner.run([tiny_task(seed=s) for s in (1, 2)])
        assert seen == [(1, 2), (2, 2)]


class TestFailureChannel:
    def bad_task(self):
        # A 512-byte extent range rounds to zero disk units: the policy
        # build raises ConfigurationError inside the worker.
        return tiny_task(policy=ExtentPolicy(range_means=("512",)))

    def test_failure_reported_not_raised(self):
        runner = ExperimentRunner()
        outcomes = runner.run([tiny_task(), self.bad_task(), tiny_task(seed=9)])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ConfigurationError" in outcomes[1].error
        assert runner.metrics.counters["core.failed"] == 1
        assert runner.metrics.counters["core.executed"] == 2

    def test_results_raises_aggregate_error(self):
        runner = ExperimentRunner()
        with pytest.raises(ExperimentError, match="1 of 2 sweep points failed"):
            runner.results([tiny_task(), self.bad_task()])

    def test_failures_are_not_cached(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run([self.bad_task()])
        assert list(tmp_path.iterdir()) == []


class TestParallelDeterminism:
    """Parallel execution must be bit-identical to serial execution."""

    def test_pool_matches_inline(self):
        tasks = [tiny_task(seed=s) for s in (1, 2, 3)]
        serial = ExperimentRunner(jobs=1).run(tasks)
        parallel = ExperimentRunner(jobs=2).run(tasks)
        assert [o.result for o in serial] == [o.result for o in parallel]
        assert [o.index for o in parallel] == [0, 1, 2]

    def test_sweep_parallel_equals_serial(self):
        serial = sweep_extent_fragmentation(
            "SC", TINY, seed=3, fits=("first",), runner=None
        )
        parallel = sweep_extent_fragmentation(
            "SC", TINY, seed=3, fits=("first",), runner=ExperimentRunner(jobs=2)
        )
        assert serial == parallel

    def test_pool_failure_channel(self):
        runner = ExperimentRunner(jobs=2)
        bad = ExperimentTask.allocation(
            tiny_config(policy=ExtentPolicy(range_means=("512",)))
        )
        outcomes = runner.run([tiny_task(), bad, tiny_task(seed=9)])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ConfigurationError" in outcomes[1].error


class TestExecuteAll:
    def test_default_runner_is_serial_uncached(self):
        results = execute_all([tiny_task()])
        assert len(results) == 1
        assert results[0].fragmentation is not None
