"""Unit tests for the helpers of :mod:`repro.core` that sit beside the
scan dispatch: region selection, power planning, the gerrymandering
score, argument validation, and the columnar :class:`AuditResult`."""

import numpy as np
import pytest

from tests.conftest import BIAS_RECT, N_WORLDS
from repro import AuditSession, AuditSpec, RegionSpec
from repro.core import (
    CORRECTIONS,
    FAMILIES,
    MultinomialSpatialAuditor,
    PoissonSpatialAuditor,
    PowerAnalysis,
    RegionColumns,
    SpatialFairnessAuditor,
    _scan_group,
    gerrymander_score,
    log_likelihood_ratio,
    select_non_overlapping,
)
from repro.engine import MonteCarloEngine
from repro.index import RegionMembership
from repro.geometry import (
    GridPartitioning,
    Rect,
    Region,
    RegionSet,
    partition_region_set,
)
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

    @pytest.mark.parametrize("policy", ["per-center", "greedy"])
    def test_result_and_columns_keep_the_same_regions(
        self, unit_coords, biased_labels, policy
    ):
        # A result or its columns builds only the significant findings;
        # the kept regions equal those selected from every finding.
        spec = AuditSpec(
            regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
            n_worlds=N_WORLDS,
            seed=11,
        )
        result = AuditSession(unit_coords, biased_labels).run(spec).result
        from_result = select_non_overlapping(result, policy=policy)
        from_columns = select_non_overlapping(result.columns, policy=policy)
        assert result._findings is None
        from_list = select_non_overlapping(result.findings, policy=policy)
        assert from_result == from_columns == from_list
        assert 0 < len(from_list) < len(result.significant_findings)

    @pytest.mark.parametrize("policy", ["per-center", "greedy"])
    def test_ties_keep_region_order(self, policy):
        # Equal statistics on one centre and across centres: the first
        # region in region order wins, whatever the input form.
        regions = RegionSet([
            Region(Rect(0, 0, 1, 1), 0),
            Region(Rect(0.5, 0.5, 1.5, 1.5), 0),
            Region(Rect(3, 3, 4, 4), 1),
            Region(Rect(2.5, 2.5, 3.5, 3.5), 2),
            Region(Rect(6, 6, 7, 7), 3),
        ])
        llr = np.array([2.0, 2.0, 5.0, 5.0, 1.0])
        columns = RegionColumns(
            regions=regions,
            n=np.full(5, 10),
            p=np.full(5, 3),
            rho_in=np.full(5, 0.3),
            llr=llr,
            p_value=np.array([0.01, 0.01, 0.01, 0.01, 0.5]),
            significant=np.array([True, True, True, True, False]),
            direction=np.full(5, -1),
        )
        kept = select_non_overlapping(columns, policy=policy)
        assert kept == select_non_overlapping(
            columns.findings(), policy=policy
        )
        want = {"per-center": [0, 2], "greedy": [2, 0]}[policy]
        assert [f.index for f in kept] == want


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

    @pytest.mark.parametrize(
        "field, value", [("n_worlds", 2.7), ("alpha", 1.5), ("workers", 0)]
    )
    def test_fields_checked_as_audits_check_them(
        self, field, value, unit_coords, unit_regions
    ):
        with pytest.raises(ValueError, match=f"^{field}: "):
            PowerAnalysis(unit_coords, unit_regions, **{field: value})

    @pytest.mark.parametrize("n_trials", [0, -1, 2.5, "3", True])
    def test_n_trials_checked(self, n_trials, unit_coords, unit_regions):
        analysis = PowerAnalysis(unit_coords, unit_regions, n_worlds=19)
        with pytest.raises(ValueError, match="^n_trials: "):
            analysis.power_at(BIAS_RECT, 0.7, 0.5, n_trials=n_trials)
        with pytest.raises(ValueError, match="^n_trials: "):
            analysis.power_curve(BIAS_RECT, 0.7, [], n_trials=n_trials)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_random", 0),
            ("n_random", -1),
            ("n_random", 2.5),
            ("threshold", "x"),
            ("threshold", 1.5),
            ("threshold", float("nan")),
        ],
    )
    def test_fields_checked(self, field, value, unit_coords, biased_labels):
        part = GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        with pytest.raises(ValueError, match=f"^{field}: "):
            gerrymander_score(
                unit_coords, biased_labels, part, **{field: value}
            )


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 1.5), ("alpha", 0), ("alpha", -1),
            ("n_worlds", 2.7), ("n_worlds", True), ("n_worlds", "9"),
            ("seed", 2.5), ("seed", -1), ("workers", 0), ("workers", 2.5),
        ],
    )
    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "multinomial"])
    def test_legacy_fields_refused_as_the_spec_refuses_them(
        self, family, field, value, unit_coords, biased_labels,
        biased_counts, biased_classes, unit_regions,
    ):
        observed, forecast = biased_counts
        auditor = {
            "bernoulli": lambda: SpatialFairnessAuditor(
                unit_coords, biased_labels
            ),
            "poisson": lambda: PoissonSpatialAuditor(
                unit_coords, observed, forecast
            ),
            "multinomial": lambda: MultinomialSpatialAuditor(
                unit_coords, biased_classes, 3
            ),
        }[family]()
        with pytest.raises(ValueError, match=f"^{field}: "):
            auditor.audit(
                unit_regions, **{"n_worlds": N_WORLDS, field: value}
            )
        with pytest.raises(ValueError, match=f"^{field}: "):
            AuditSpec(regions=RegionSpec.grid(5, 5), family=family,
                      **{field: value})

    def test_membership_must_match_regions_and_points(
        self, unit_coords, biased_labels, unit_regions
    ):
        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        coarse = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 2, 2)
        )
        other_points = np.random.default_rng(7).random((300, 2))
        for membership in (
            RegionMembership(coarse, unit_coords),
            RegionMembership(unit_regions, other_points),
        ):
            with pytest.raises(ValueError, match="^membership: "):
                auditor.audit(
                    unit_regions, n_worlds=N_WORLDS, membership=membership
                )
        # A matching index built elsewhere is accepted.
        auditor.audit(
            unit_regions, n_worlds=N_WORLDS, seed=1,
            membership=RegionMembership(unit_regions, unit_coords),
        )

    @pytest.mark.parametrize("n_classes", [601, 2**64])
    def test_multinomial_class_count_bounded_by_points(
        self, n_classes, unit_coords, biased_classes
    ):
        # Refused before any per-class array is allocated.
        with pytest.raises(ValueError, match="^n_classes: "):
            MultinomialSpatialAuditor(unit_coords, biased_classes, n_classes)
        session = AuditSession(
            unit_coords, biased_classes, n_classes=n_classes
        )
        spec = AuditSpec(regions=RegionSpec.grid(3, 3),
                         family="multinomial", n_worlds=N_WORLDS, seed=1)
        with pytest.raises(ValueError, match="^n_classes: "):
            session.run(spec)
        # So is a window evicted below a declared count.
        small = AuditSession(unit_coords, biased_classes, n_classes=3)
        small.evict(np.arange(len(unit_coords)) >= 2)
        with pytest.raises(ValueError, match="^n_classes: 3 classes"):
            small.run(spec)
        # An inferred count is bounded the same way.
        labels = np.zeros(len(unit_coords), dtype=np.int64)
        labels[-1] = 10**7
        with pytest.raises(ValueError, match="^outcomes: "):
            AuditSession(unit_coords, labels).run(spec)


def _doubled_grid() -> RegionSet:
    """An empty region, then every cell of the unit 3x3 grid twice: each
    statistic appears at two region indices (a tie), and the empty
    region must never be the best."""
    cells = list(
        partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        )
    )
    return RegionSet([Region(Rect(2.0, 2.0, 3.0, 3.0), -1)] + cells + cells)


@pytest.fixture(
    params=[
        (family, correction)
        for family in ("bernoulli", "poisson", "multinomial")
        for correction in CORRECTIONS
    ],
    ids=lambda case: "-".join(case),
)
def doubled_scan(request, unit_coords, biased_labels, biased_counts,
                 biased_classes):
    """``scan(alpha)`` runs the case's family and correction over
    :func:`_doubled_grid`."""
    family, correction = request.param
    observed, forecast = biased_counts
    outcomes, extra = {
        "bernoulli": (biased_labels, {}),
        "poisson": (observed, {"forecast": forecast}),
        "multinomial": (biased_classes, {"n_classes": 3}),
    }[family]
    bound = FAMILIES[family].bind(unit_coords, outcomes, **extra)
    member = RegionMembership(_doubled_grid(), unit_coords)

    def scan(alpha=0.25):
        fam = FAMILIES[family]
        return _scan_group(
            MonteCarloEngine(), fam.kernel(bound, 0), [member],
            [fam.observed(bound, member, 0)], [alpha], 0, [correction],
            N_WORLDS, 5, None, None,
        )[0]

    return family, scan


class TestColumnarResult:
    """The result keeps per-region columns and builds findings from
    them on request, with the values, types and orders of findings
    built eagerly."""

    def test_findings_built_once(self, doubled_scan):
        _, scan = doubled_scan
        result = scan()
        assert result.findings is result.findings
        assert result.significant_findings is result.significant_findings
        assert [f.index for f in result.findings] == list(
            range(result.n_regions)
        )

    def test_field_types(self, doubled_scan):
        family, scan = doubled_scan
        result = scan()
        assert not result.columns.llr.flags.writeable
        for f in result.findings:
            for name in ("index", "center_id", "n", "p", "direction"):
                assert type(getattr(f, name)) is int, name
            for name in ("rho_in", "llr", "p_value"):
                assert type(getattr(f, name)) is float, name
            assert type(f.significant) is bool
            assert type(f.rect) is Rect
            assert type(f.class_rates) is tuple
            if family == "multinomial":
                assert len(f.class_rates) == 3
                assert all(type(r) is np.float64 for r in f.class_rates)
                assert f.class_rates == tuple(
                    result.columns.class_rates[f.index]
                )
            else:
                assert f.class_rates == ()

    def test_tied_significant_keep_region_order(self, doubled_scan):
        _, scan = doubled_scan
        result = scan()
        sig = result.significant_findings
        assert sig, "the biased fixtures must flag regions"
        assert sig == sorted(
            (f for f in result.findings if f.significant),
            key=lambda f: f.llr,
            reverse=True,
        )
        # Each statistic is tied with its copy 9 regions later.
        assert [f.index for f in sig[::2]] == [
            f.index - 9 for f in sig[1::2]
        ]
        assert result.best_finding == sig[0]
        assert result.top_regions(2) == sig[:2]

    def test_best_without_significant_region(self, doubled_scan):
        # 49 worlds cannot reach p <= 0.01: nothing is flagged.
        _, scan = doubled_scan
        result = scan(alpha=0.01)
        assert result.significant_findings == []
        best = result.best_finding
        assert best == max(
            (f for f in result.findings if f.n > 0), key=lambda f: f.llr
        )
        assert 1 <= best.index <= 9
        assert best.index + 9 in {
            f.index for f in result.findings if f.llr == best.llr
        }
        assert result.top_regions(3) == []

    def test_equality_compares_findings(self, doubled_scan):
        _, scan = doubled_scan
        a, b = scan(), scan()
        assert a.columns is not b.columns
        assert a == b
        assert a != scan(alpha=0.01)

    @pytest.mark.parametrize("k", [-1, True, 2.5, "2", None])
    def test_top_regions_rejects_bad_k(self, square_scan, k):
        with pytest.raises(ValueError, match="^k: "):
            square_scan.top_regions(k)

    def test_top_regions_accepts_integers(self, square_scan):
        sig = square_scan.significant_findings
        assert square_scan.top_regions(0) == []
        assert square_scan.top_regions(np.int64(1)) == sig[:1]
        assert square_scan.top_regions(2.0) == sig[:2]
        assert square_scan.top_regions(len(sig) + 5) == sig
