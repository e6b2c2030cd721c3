"""Unit tests for the §2.2 workload profiles."""

import pytest

from repro.core.configs import PAPER_SYSTEM
from repro.core.experiments import build_profile
from repro.errors import ConfigurationError
from repro.units import GIB, KIB, MIB
from repro.workload.filetype import AccessPattern
from repro.workload.profiles import (
    Profile,
    supercomputer,
    time_sharing,
    transaction_processing,
)
from tests.oracles.profiles import mini

CAPACITY = 2_831_155_200  # the paper's 2.8 G


def type_named(profile, name):
    """The profile's file type called ``name``."""
    (file_type,) = [t for t in profile.types if t.name == name]
    return file_type


def total_initial_bytes(profile):
    """Expected bytes of the profile's initial population."""
    return sum(t.n_files * t.initial_size_bytes for t in profile.types)


class TestTimeSharing:
    def test_paper_file_sizes(self):
        profile = time_sharing(CAPACITY)
        small = type_named(profile, "ts-small")
        large = type_named(profile, "ts-large")
        assert small.initial_size_bytes == 8 * KIB
        assert large.initial_size_bytes == 96 * KIB

    def test_small_files_get_two_thirds_of_requests(self):
        profile = time_sharing(CAPACITY)
        small = type_named(profile, "ts-small")
        large = type_named(profile, "ts-large")
        share = small.event_rate / (small.event_rate + large.event_rate)
        assert share == pytest.approx(2 / 3, abs=0.05)

    def test_population_hits_fill_target(self):
        profile = time_sharing(CAPACITY, fill_fraction=0.91)
        assert total_initial_bytes(profile) == pytest.approx(
            0.91 * CAPACITY, rel=0.02
        )

    def test_scale_shrinks_counts_not_sizes(self):
        full = time_sharing(CAPACITY)
        quarter = time_sharing(CAPACITY, scale=0.25)
        assert type_named(quarter, "ts-small").n_files == pytest.approx(
            type_named(full, "ts-small").n_files / 4, rel=0.01
        )
        assert type_named(quarter, "ts-small").initial_size_bytes == 8 * KIB

    def test_large_ratios_match_paper(self):
        large = type_named(time_sharing(CAPACITY), "ts-large")
        assert (large.read_ratio, large.write_ratio, large.extend_ratio,
                large.delete_ratio, large.truncate_ratio) == (60, 15, 15, 5, 5)

    def test_bad_fill_fraction(self):
        with pytest.raises(ConfigurationError):
            time_sharing(CAPACITY, fill_fraction=0.0)


class TestTransactionProcessing:
    def test_paper_population(self):
        profile = transaction_processing()
        relation = type_named(profile, "tp-relation")
        assert relation.n_files == 10
        assert relation.initial_size_bytes == 210 * MIB
        assert type_named(profile, "tp-applog").n_files == 5
        assert type_named(profile, "tp-applog").initial_size_bytes == 5 * MIB
        assert type_named(profile, "tp-syslog").initial_size_bytes == 10 * MIB

    def test_relation_ratios(self):
        relation = type_named(transaction_processing(), "tp-relation")
        assert (relation.read_ratio, relation.write_ratio,
                relation.extend_ratio, relation.truncate_ratio) == (60, 30, 7, 3)
        assert relation.access is AccessPattern.RANDOM

    def test_log_ratios(self):
        profile = transaction_processing()
        applog = type_named(profile, "tp-applog")
        syslog = type_named(profile, "tp-syslog")
        assert applog.extend_ratio == 93.0
        assert syslog.extend_ratio == 94.0
        assert syslog.read_ratio > applog.read_ratio  # transaction aborts

    def test_total_near_75_percent_of_capacity(self):
        profile = transaction_processing()
        assert total_initial_bytes(profile) == pytest.approx(2.1 * GIB, rel=0.05)

    def test_scaling(self):
        half = transaction_processing(scale=0.5)
        assert type_named(half, "tp-relation").initial_size_bytes == 105 * MIB
        assert type_named(half, "tp-relation").n_files == 10


class TestSupercomputer:
    def test_paper_population(self):
        profile = supercomputer()
        assert type_named(profile, "sc-large").n_files == 1
        assert type_named(profile, "sc-large").initial_size_bytes == 500 * MIB
        assert type_named(profile, "sc-medium").n_files == 15
        assert type_named(profile, "sc-medium").initial_size_bytes == 100 * MIB
        assert type_named(profile, "sc-small").n_files == 10
        assert type_named(profile, "sc-small").initial_size_bytes == 10 * MIB

    def test_burst_sizes(self):
        profile = supercomputer()
        assert type_named(profile, "sc-large").rw_size_bytes == 512 * KIB
        assert type_named(profile, "sc-small").rw_size_bytes == 32 * KIB

    def test_all_sequential(self):
        profile = supercomputer()
        assert all(t.access is AccessPattern.SEQUENTIAL for t in profile.types)

    def test_small_files_deleted_and_recreated(self):
        small = type_named(supercomputer(), "sc-small")
        assert small.delete_ratio == 5.0


class TestRegistry:
    def test_profile_by_name(self):
        assert build_profile("ts", PAPER_SYSTEM, 0.91).name == "TS"
        assert build_profile("TP", PAPER_SYSTEM, 0.91).name == "TP"
        assert build_profile("sc", PAPER_SYSTEM, 0.91).name == "SC"

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            build_profile("nope", PAPER_SYSTEM, 0.91)

    def test_mini_profile(self):
        profile = mini(n_files=3, initial_size="4K")
        assert profile.types[0].n_files == 3
        assert profile.types[0].initial_size_bytes == 4096

    def test_duplicate_type_names_raise(self):
        small = time_sharing(CAPACITY).types[0]
        with pytest.raises(ConfigurationError):
            Profile(name="bad", types=(small, small))

    def test_empty_profile_raises(self):
        with pytest.raises(ConfigurationError):
            Profile(name="empty", types=())
