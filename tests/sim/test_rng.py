"""Unit + property tests for the seeded random streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.rng import PreparedWeights, RandomStream


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomStream(7, "x")
        b = RandomStream(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        a = RandomStream(7, "x")
        b = RandomStream(7, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = RandomStream(7).fork("child")
        b = RandomStream(7).fork("child")
        assert a.random() == b.random()

    def test_fork_independent_of_parent_consumption(self):
        parent_a = RandomStream(7)
        parent_a.random()  # consume some of the parent
        parent_b = RandomStream(7)
        assert parent_a.fork("c").random() == parent_b.fork("c").random()


class TestDistributions:
    def test_uniform_bounds(self):
        rng = RandomStream(1)
        for _ in range(100):
            value = rng.uniform(2.0, 5.0)
            assert 2.0 <= value <= 5.0

    def test_uniform_inverted_raises(self):
        with pytest.raises(ConfigurationError):
            RandomStream(1).uniform(5.0, 2.0)

    def test_uniform_int_bounds(self):
        rng = RandomStream(1)
        values = {rng.uniform_int(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_uniform_around_never_negative(self):
        rng = RandomStream(1)
        for _ in range(200):
            assert rng.uniform_around(1.0, 10.0) >= 0.0

    def test_normal_clamped_at_minimum(self):
        rng = RandomStream(1)
        for _ in range(200):
            assert rng.normal(1.0, 100.0, minimum=0.5) >= 0.5

    def test_normal_negative_deviation_raises(self):
        with pytest.raises(ConfigurationError):
            RandomStream(1).normal(1.0, -1.0)

    def test_normal_mean_roughly_correct(self):
        rng = RandomStream(3)
        samples = [rng.normal(100.0, 10.0) for _ in range(5000)]
        assert 98.0 < sum(samples) / len(samples) < 102.0

    def test_exponential_mean_roughly_correct(self):
        rng = RandomStream(4)
        samples = [rng.exponential(20.0) for _ in range(20000)]
        assert 19.0 < sum(samples) / len(samples) < 21.0

    def test_exponential_zero_mean(self):
        assert RandomStream(1).exponential(0.0) == 0.0

    def test_exponential_negative_raises(self):
        with pytest.raises(ConfigurationError):
            RandomStream(1).exponential(-1.0)


class TestChoices:
    def test_choice_empty_raises(self):
        with pytest.raises(ConfigurationError):
            RandomStream(1).choice([])

    def test_weighted_choice_respects_zero_weight(self):
        rng = RandomStream(2)
        prepared = PreparedWeights(["a", "b", "c"], [1.0, 0.0, 1.0])
        picks = {rng.weighted_choice_prepared(prepared) for _ in range(300)}
        assert rng.draws == 300  # one uniform sample per pick
        assert "b" not in picks
        assert picks == {"a", "c"}

    def test_weighted_choice_proportions(self):
        rng = RandomStream(5)
        prepared = PreparedWeights(["a", "b"], [3.0, 1.0])
        counts = {"a": 0, "b": 0}
        for _ in range(10000):
            counts[rng.weighted_choice_prepared(prepared)] += 1
        ratio = counts["a"] / counts["b"]
        assert 2.5 < ratio < 3.6

    def test_weighted_choice_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            PreparedWeights(["a"], [1.0, 2.0])

    def test_weighted_choice_zero_total_raises(self):
        with pytest.raises(ConfigurationError):
            PreparedWeights(["a", "b"], [0.0, 0.0])

    def test_weighted_choice_negative_weight_always_raises(self):
        # Wherever the negative weight sits — last is where a pick would
        # almost never land — validation is up-front, at construction,
        # not dependent on any draw.
        for weights in ([-1.0, 5.0, 5.0], [5.0, -1.0, 5.0], [5.0, 5.0, -1.0]):
            with pytest.raises(ConfigurationError):
                PreparedWeights(["a", "b", "c"], weights)

    def test_shuffle_is_permutation(self):
        rng = RandomStream(6)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items


@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(max_size=20))
@settings(max_examples=50)
def test_property_stream_reproducible(seed, name):
    """Any (seed, name) pair yields an identical stream on reconstruction."""
    a = RandomStream(seed, name or "root")
    b = RandomStream(seed, name or "root")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@given(
    low=st.integers(min_value=-1000, max_value=1000),
    span=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50)
def test_property_uniform_int_in_bounds(low, span):
    rng = RandomStream(0)
    value = rng.uniform_int(low, low + span)
    assert low <= value <= low + span
