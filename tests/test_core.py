"""Unit tests for the helpers of :mod:`repro.core` that sit beside the
scan dispatch: region selection, power planning, the gerrymandering
score, and argument validation."""

import numpy as np
import pytest

from tests.conftest import BIAS_RECT, N_WORLDS
from repro import AuditSession, AuditSpec, RegionSpec
from repro.core import (
    PowerAnalysis,
    SpatialFairnessAuditor,
    gerrymander_score,
    log_likelihood_ratio,
    select_non_overlapping,
)
from repro.geometry import GridPartitioning, Rect
from repro.stats import bernoulli_llr


@pytest.fixture(scope="module")
def square_scan(unit_coords, biased_labels):
    return AuditSession(unit_coords, biased_labels).run(
        AuditSpec(
            regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
            n_worlds=N_WORLDS,
            seed=11,
        )
    ).result


class TestSelectNonOverlapping:
    @pytest.mark.parametrize("policy", ["per-center", "greedy"])
    def test_kept_regions_are_disjoint_and_significant(
        self, square_scan, policy
    ):
        kept = select_non_overlapping(square_scan.findings, policy=policy)
        assert kept
        assert all(f.significant for f in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert not a.rect.intersects(b.rect)

    def test_greedy_keeps_the_strongest_region(self, square_scan):
        kept = select_non_overlapping(square_scan.findings, policy="greedy")
        assert kept[0] == square_scan.significant_findings[0]

    def test_unknown_policy(self, square_scan):
        with pytest.raises(ValueError, match="unknown policy"):
            select_non_overlapping(square_scan.findings, policy="random")


class TestPowerAnalysis:
    def test_strong_bias_is_detected_and_repeats(self, unit_coords,
                                                 unit_regions):
        analysis = PowerAnalysis(
            unit_coords, unit_regions, n_worlds=19, seed=4
        )
        first = analysis.power_at(BIAS_RECT, 0.7, 0.55, n_trials=3)
        again = analysis.power_at(BIAS_RECT, 0.7, 0.55, n_trials=3)
        assert first == again
        assert first.power == 1.0
        assert first.n_trials == 3
        # Every trial audits through the one shared engine and index.
        assert analysis.engine.index_builds == 1

    def test_curve_shares_one_random_stream(self, unit_coords,
                                            unit_regions):
        analysis = PowerAnalysis(
            unit_coords, unit_regions, n_worlds=19, seed=4
        )
        curve = analysis.power_curve(BIAS_RECT, 0.7, [0.0, 0.55],
                                     n_trials=2)
        assert [e.gap for e in curve] == [0.0, 0.55]
        assert curve[1].power == 1.0
        rng = np.random.default_rng(4)
        first = analysis.power_at(BIAS_RECT, 0.7, 0.0, n_trials=2,
                                  _rng=rng)
        assert first == curve[0]


class TestGerrymanderScore:
    def test_fields_and_determinism(self, unit_coords, biased_labels):
        part = GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        score = gerrymander_score(
            unit_coords, biased_labels, part, n_random=9, seed=2
        )
        again = gerrymander_score(
            unit_coords, biased_labels, part, n_random=9, seed=2
        )
        assert score == again
        assert score.n_random == 9
        assert 0.0 <= score.percentile <= 1.0
        assert score.suspicious == (score.percentile <= score.threshold)
        assert score.exposure > 0.0


class TestValidation:
    def test_log_likelihood_ratio_matches_stats(self):
        n = np.array([10.0, 20.0, 30.0])
        p = np.array([2.0, 15.0, 12.0])
        assert np.array_equal(
            log_likelihood_ratio(n, p, 100, 40),
            bernoulli_llr(n, p, 100.0, 40.0),
        )

    def test_unknown_direction(self, unit_coords, biased_labels,
                               unit_regions):
        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="unknown direction"):
            auditor.audit(unit_regions, n_worlds=N_WORLDS,
                          direction="sideways")

    def test_world_budget_must_be_positive(self, unit_coords,
                                           biased_labels, unit_regions):
        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="n_worlds"):
            auditor.audit(unit_regions, n_worlds=0)
