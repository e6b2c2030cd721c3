"""The divergence bisector: timeline comparison and exact-event localization."""

import pytest

from repro import (
    ExperimentConfig,
    Fingerprint,
    RestrictedPolicy,
    SystemConfig,
    bisect_divergence,
)
from repro.audit.bisect import DivergenceReport, compare_timelines
from repro.audit.replay import performance_replay
from repro.errors import ReproError

from .perturb import perturbed

CAPS = dict(app_cap_ms=600.0, seq_cap_ms=600.0)


def small_config(seed=11):
    return ExperimentConfig(
        policy=RestrictedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.01),
        seed=seed,
    )


class TestCompareTimelines:
    def samples(self, *digests):
        return [
            Fingerprint(1000 * (i + 1), float(i), digest)
            for i, digest in enumerate(digests)
        ]

    def test_identical(self):
        a = self.samples("x", "y")
        assert compare_timelines(a, self.samples("x", "y")) is None

    def test_first_differing_digest(self):
        a = self.samples("x", "y", "z")
        b = self.samples("x", "q", "z")
        assert compare_timelines(a, b) == 1

    def test_length_mismatch_differs_at_first_missing(self):
        a = self.samples("x", "y")
        assert compare_timelines(a, self.samples("x")) == 1

    def test_time_mismatch_counts(self):
        a = self.samples("x")
        b = [Fingerprint(1000, 99.0, "x")]
        assert compare_timelines(a, b) == 0


class TestDivergenceReport:
    def test_render_no_divergence(self):
        text = DivergenceReport(diverged=False, probes=1).render()
        assert "no divergence" in text

    def test_cadence_validation(self):
        with pytest.raises(ReproError, match="cadence"):
            bisect_divergence(lambda a: None, lambda a: None, cadence=0)


class TestEndToEnd:
    def test_identical_replays_do_not_diverge(self):
        replay_a = performance_replay(small_config(), **CAPS)
        replay_b = performance_replay(small_config(), **CAPS)
        report = bisect_divergence(replay_a, replay_b, cadence=5_000)
        assert not report.diverged
        assert report.probes == 1

    def test_localizes_seeded_perturbation_exactly(self):
        # Run B silently burns one extra RNG draw just before event 2500;
        # the bisector must name that exact event and the rng section.
        def burn_one_draw(sim):
            busiest = max(
                (s for _, s in sim.auditor.ledger.items()),
                key=lambda s: s.draws,
            )
            busiest.uniform(0.0, 1.0)

        replay_a = performance_replay(small_config(), **CAPS)
        replay_b = perturbed(
            performance_replay(small_config(), **CAPS), 2_500, burn_one_draw
        )
        report = bisect_divergence(
            replay_a, replay_b, cadence=1_000, fine_limit=32
        )
        assert report.diverged
        assert report.first_event == 2_500
        assert "rng" in report.differing_sections
        assert report.bracket[0] < 2_500 <= report.bracket[1]
        assert report.state_a is not None and report.state_b is not None
        rendered = report.render()
        assert "#2500" in rendered and "rng" in rendered
