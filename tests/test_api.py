"""Unit tests for :mod:`repro.api` and the CLI: the façade reproduces
every legacy auditor bit-for-bit, reuses its indexes across runs, and
serves stable, versioned reports."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import AuditService, AuditSession, AuditSpec, RegionSpec
from repro.core import (
    FAMILIES,
    MultinomialSpatialAuditor,
    PoissonSpatialAuditor,
    SpatialFairnessAuditor,
    equal_opportunity,
    predictive_equality,
)
from repro.datasets import SpatialDataset
from repro.stats import benjamini_hochberg
from tests.conftest import N_WORLDS
from tests.test_engine import result_fingerprint

#: The unit grid every equivalence test scans — identical to the
#: ``unit_regions`` fixture's geometry.
UNIT_GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))


class TestLegacyEquivalence:
    """Acceptance: every audit expressible today is expressible as an
    AuditSpec, reproducing the legacy auditor bit-identically."""

    def test_bernoulli(self, unit_coords, biased_labels, unit_regions):
        legacy = SpatialFairnessAuditor(unit_coords, biased_labels).audit(
            unit_regions, n_worlds=N_WORLDS, seed=17
        )
        spec = AuditSpec(regions=UNIT_GRID, family="bernoulli",
                         n_worlds=N_WORLDS, seed=17)
        report = AuditSession(unit_coords, biased_labels).run(spec)
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )
        assert not report.is_fair

    def test_poisson(self, unit_coords, biased_counts, unit_regions):
        observed, forecast = biased_counts
        legacy = PoissonSpatialAuditor(
            unit_coords, observed, forecast
        ).audit(unit_regions, n_worlds=N_WORLDS, seed=23)
        spec = AuditSpec(regions=UNIT_GRID, family="poisson",
                         n_worlds=N_WORLDS, seed=23)
        report = AuditSession(
            unit_coords, observed, forecast=forecast
        ).run(spec)
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )

    def test_multinomial(self, unit_coords, biased_classes, unit_regions):
        legacy = MultinomialSpatialAuditor(
            unit_coords, biased_classes, 3
        ).audit(unit_regions, n_worlds=N_WORLDS, seed=29)
        spec = AuditSpec(regions=UNIT_GRID, family="multinomial",
                         n_worlds=N_WORLDS, seed=29)
        report = AuditSession(
            unit_coords, biased_classes, n_classes=3
        ).run(spec)
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )

    def test_directional_bernoulli(self, unit_coords, biased_labels,
                                   unit_regions):
        legacy = SpatialFairnessAuditor(unit_coords, biased_labels).audit(
            unit_regions, n_worlds=N_WORLDS, seed=17, direction="lower"
        )
        spec = AuditSpec(regions=UNIT_GRID, direction="red",
                         n_worlds=N_WORLDS, seed=17)
        report = AuditSession(unit_coords, biased_labels).run(spec)
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )

    def test_equal_opportunity_measure(self, unit_coords, biased_labels):
        rng = np.random.default_rng(7)
        y_true = (rng.random(len(unit_coords)) < 0.6).astype(np.int8)
        dataset = SpatialDataset(coords=unit_coords, y_pred=biased_labels,
                                 y_true=y_true)
        measure = equal_opportunity(dataset)
        legacy = SpatialFairnessAuditor(
            measure.coords, measure.outcomes
        ).audit(UNIT_GRID.build(measure.coords), n_worlds=N_WORLDS,
                seed=31)
        spec = AuditSpec(regions=UNIT_GRID, measure="equal_opportunity",
                         n_worlds=N_WORLDS, seed=31)
        report = AuditSession(
            unit_coords, biased_labels, y_true=y_true
        ).run(spec)
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )

    def test_measure_grid_covers_full_data_bounds(self, unit_coords,
                                                  biased_labels):
        """A bounds-less grid partitions the full dataset's bbox even
        when the measure audits a subset — the legacy fig04 workflow
        (grid over ``data.bounds()``, audit the y_true==1 slice)."""
        rng = np.random.default_rng(7)
        y_true = (rng.random(len(unit_coords)) < 0.6).astype(np.int8)
        dataset = SpatialDataset(coords=unit_coords, y_pred=biased_labels,
                                 y_true=y_true)
        measure = equal_opportunity(dataset)
        from repro.geometry import (
            GridPartitioning,
            partition_region_set,
        )

        legacy_grid = partition_region_set(
            GridPartitioning.regular(dataset.bounds(), 6, 6)
        )
        legacy = SpatialFairnessAuditor(
            measure.coords, measure.outcomes
        ).audit(legacy_grid, n_worlds=N_WORLDS, seed=31)
        report = AuditSession(
            unit_coords, biased_labels, y_true=y_true
        ).run(
            AuditSpec(regions=RegionSpec.grid(6, 6),
                      measure="equal_opportunity",
                      n_worlds=N_WORLDS, seed=31)
        )
        assert result_fingerprint(report.result) == result_fingerprint(
            legacy
        )

    def test_spec_survives_the_wire(self, unit_coords, biased_labels):
        """Serialising the request changes nothing about the answer."""
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        session = AuditSession(unit_coords, biased_labels)
        direct = session.run(spec)
        wired = session.run(AuditSpec.from_json(spec.to_json()))
        assert result_fingerprint(direct.result) == result_fingerprint(
            wired.result
        )


class TestSessionCaching:
    def test_second_run_rebuilds_nothing(self, unit_coords,
                                         biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=5)
        first = session.run(spec)
        assert session.index_builds == 1
        again = session.run(spec)
        assert session.index_builds == 1  # zero membership rebuilds
        assert again.to_dict(full=True) == first.to_dict(full=True)

    def test_run_many_shares_the_index(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        base = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=5)
        reports = session.run_many(
            [base, replace(base, direction="lower"),
             replace(base, direction="higher")]
        )
        assert len(reports) == 3
        assert session.index_builds == 1
        assert [r.spec.direction for r in reports] == [
            "two-sided", "lower", "higher",
        ]

    def test_distinct_designs_build_distinct_indexes(self, unit_coords,
                                                     biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        for spec in (
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=5),
            AuditSpec(regions=RegionSpec.grid(3, 3), n_worlds=N_WORLDS,
                      seed=5),
        ):
            session.run(spec)
        assert session.index_builds == 2


class TestObservedScanCache:
    """Each dataset state scans a design's observed statistics once per
    family, measure and direction."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        family = FAMILIES["poisson"]
        calls = []
        observed = family.observed

        def spy(bound, member, direction):
            calls.append(direction)
            return observed(bound, member, direction)

        monkeypatch.setattr(family, "observed", spy)
        return calls

    def test_runs_on_one_state_share_the_scan(
        self, scans, unit_coords, biased_counts
    ):
        observed, forecast = biased_counts
        session = AuditSession(unit_coords, observed, forecast=forecast)
        spec = AuditSpec(regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
                         family="poisson", n_worlds=N_WORLDS, seed=5)
        session.run(spec)
        again = session.run(replace(spec, seed=6))
        assert scans == [0]
        cold = AuditSession(unit_coords, observed, forecast=forecast)
        assert json.dumps(again.to_dict(full=True)) == json.dumps(
            cold.run(replace(spec, seed=6)).to_dict(full=True)
        )
        session.run(replace(spec, direction="higher"))
        session.run(replace(spec, seed=7, direction="higher"))
        assert scans == [0, 0, 1]
        # A stream event starts a new state, which scans afresh.
        session.append(unit_coords[:5], observed[:5], forecast=forecast[:5])
        session.run(spec)
        assert scans == [0, 0, 1, 0]

    def test_fused_adaptive_group_reuses_the_scan(
        self, scans, unit_coords, biased_counts
    ):
        observed, forecast = biased_counts
        service = AuditService(
            AuditSession(unit_coords, observed, forecast=forecast)
        )
        specs = [
            AuditSpec(regions=design, family="poisson",
                      n_worlds=N_WORLDS, seed=5, budget="adaptive")
            for design in (UNIT_GRID, RegionSpec.squares(8, sides=(0.2,)))
        ]
        first = service.run_batch(specs)
        assert scans == [0, 0]
        again = service.run_batch([replace(s, seed=6) for s in specs])
        assert scans == [0, 0]
        solo = AuditSession(unit_coords, observed, forecast=forecast)
        for spec, report in zip(specs, first):
            assert report.to_dict(full=True) == solo.run(spec).to_dict(
                full=True
            )
        assert len(again) == 2


class TestDegenerateGrids:
    def test_zero_width_axis_counts_every_column(self):
        # Every point shares one x and the grid's bounds come from the
        # data, so the x axis has zero width: each point lies in all
        # four (closed, zero-width) columns of its row.
        rng = np.random.default_rng(11)
        coords = np.column_stack([np.full(190, 0.5), rng.random(190)])
        outcomes = (rng.random(190) < 0.5).astype(np.int8)
        spec = AuditSpec(
            regions=RegionSpec.grid(4, 4), n_worlds=N_WORLDS, seed=3
        )
        session = AuditSession(coords, outcomes)
        report = session.run(spec)
        assert [f.n for f in report.findings] == (
            [60] * 4 + [43] * 4 + [45] * 4 + [42] * 4
        )
        assert not session.resolve(spec).member.disjoint


class TestBuilder:
    def test_builder_equals_explicit_spec(self, unit_coords,
                                          biased_labels):
        built = (
            repro.audit(unit_coords, biased_labels)
            .partition(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))
            .worlds(N_WORLDS)
            .seed(17)
            .run()
        )
        explicit = AuditSession(unit_coords, biased_labels).run(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        )
        assert built.spec == explicit.spec
        assert result_fingerprint(built.result) == result_fingerprint(
            explicit.result
        )

    def test_full_chain_produces_the_expected_spec(self, unit_coords,
                                                   biased_labels):
        builder = (
            repro.audit(unit_coords, biased_labels)
            .family("bernoulli")
            .measure("statistical_parity")
            .squares(10, sides=(0.2, 0.4), centers_seed=2)
            .worlds(49)
            .alpha(0.01)
            .direction("green")
            .correction("fdr-bh")
            .seed(3)
            .workers(1)
        )
        assert builder.spec() == AuditSpec(
            regions=RegionSpec.squares(10, sides=(0.2, 0.4),
                                       centers_seed=2),
            family="bernoulli", measure="statistical_parity",
            n_worlds=49, alpha=0.01, direction="higher",
            correction="fdr-bh", seed=3, workers=1,
        )

    def test_circles_and_regions_setters(self, unit_coords,
                                         biased_labels):
        builder = repro.audit(unit_coords, biased_labels)
        assert builder.circles(4, radii=(0.3,)).spec().regions.kind == (
            "circles"
        )
        design = RegionSpec.grid(2, 2)
        assert builder.regions(design).spec().regions is design
        assert builder.session is builder.session

    def test_builder_without_design_refuses(self, unit_coords,
                                            biased_labels):
        with pytest.raises(ValueError, match="no region design"):
            repro.audit(unit_coords, biased_labels).worlds(9).spec()


class TestValidationErrors:
    def test_empty_region_set_names_the_field(self, unit_coords,
                                              biased_labels):
        from repro.geometry import RegionSet

        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="regions.*empty"):
            auditor.audit(RegionSet([]), n_worlds=N_WORLDS, seed=1)

    def test_uncovered_regions_name_the_spec_field(self, unit_coords,
                                                   biased_labels):
        # A grid nowhere near the data: every region holds zero points.
        spec = AuditSpec(
            regions=RegionSpec.grid(3, 3, bounds=(50.0, 50.0, 60.0, 60.0)),
            n_worlds=N_WORLDS, seed=1,
        )
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError) as err:
            session.run(spec)
        assert "spec.regions" in str(err.value)
        assert "observation" in str(err.value)

    @pytest.mark.parametrize("bad", ["label_two", "scores", "nan"])
    def test_non_binary_bernoulli_outcomes_name_the_field(
        self, unit_coords, biased_labels, bad
    ):
        outcomes = {
            "label_two": np.where(biased_labels == 1, 2, 0),
            "scores": np.random.default_rng(0).random(len(unit_coords)),
            "nan": np.r_[biased_labels[:-1], np.nan],
        }[bad]
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        with pytest.raises(ValueError, match=r"^outcomes: "):
            AuditSession(unit_coords, outcomes).run(spec)
        with pytest.raises(ValueError, match=r"^outcomes: "):
            SpatialFairnessAuditor(unit_coords, outcomes)

    def test_non_binary_append_fails_the_next_bernoulli_audit(
        self, unit_coords, biased_labels
    ):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        session = AuditSession(unit_coords, biased_labels)
        session.run(spec)
        session.append(unit_coords[:2], [1, 2])
        with pytest.raises(ValueError, match=r"^outcomes: .* got 2$"):
            session.run(spec)

    @pytest.mark.parametrize("outcomes", [
        np.array([True, False] * 300),
        np.array([1.0, 0.0] * 300),
        np.array([1, 0] * 300, dtype=np.int64),
    ])
    def test_bool_and_binary_numbers_stay_accepted(
        self, unit_coords, outcomes
    ):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        reports = [
            AuditSession(unit_coords, labels).run(spec).to_dict(full=True)
            for labels in (outcomes, outcomes.astype(np.int8))
        ]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("value", [-5.0, np.nan, np.inf, 0.3, 2.5,
                                       1e308])
    def test_bad_poisson_counts_name_the_field(
        self, unit_coords, biased_counts, value
    ):
        # Fractional counts once entered the observed LLR as given while
        # the null drew round(O) whole events, and a total of 1e308
        # failed every audit in rng.multinomial.
        observed, forecast = biased_counts
        observed = observed.copy()
        observed[0] = value
        spec = AuditSpec(regions=UNIT_GRID, family="poisson",
                         n_worlds=N_WORLDS, seed=1)
        with pytest.raises(ValueError, match=r"^outcomes: "):
            AuditSession(unit_coords, observed, forecast=forecast).run(spec)
        with pytest.raises(ValueError, match=r"^outcomes: "):
            PoissonSpatialAuditor(unit_coords, observed, forecast)

    @pytest.mark.parametrize("value", [2.7, -0.5, np.nan, -1.0])
    def test_bad_multinomial_labels_name_the_field(
        self, unit_coords, biased_classes, value
    ):
        # Before the check, 2.7 and -0.5 were cast to classes 2 and 0
        # and the audit ran.
        labels = biased_classes.astype(np.float64)
        labels[0] = value
        spec = AuditSpec(regions=UNIT_GRID, family="multinomial",
                         n_worlds=N_WORLDS, seed=1)
        with pytest.raises(ValueError, match=r"^outcomes: .*integer"):
            AuditSession(unit_coords, labels).run(spec)
        with pytest.raises(ValueError, match=r"^outcomes: "):
            MultinomialSpatialAuditor(unit_coords, labels, 3)

    def test_integral_float_multinomial_labels_stay_accepted(
        self, unit_coords, biased_classes
    ):
        spec = AuditSpec(regions=UNIT_GRID, family="multinomial",
                         n_worlds=N_WORLDS, seed=1)
        reports = [
            AuditSession(unit_coords, labels).run(spec).to_dict(full=True)
            for labels in (biased_classes, biased_classes.astype(float))
        ]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("design", [
        UNIT_GRID, RegionSpec.squares(8, sides=(0.2, 0.35)),
    ])
    def test_zero_poisson_total_is_fair(self, unit_coords, biased_counts,
                                        design):
        """No observed events: nothing to scan, FAIR at p = 1, as an
        all-zero Bernoulli audit is (region-level and points path)."""
        _, forecast = biased_counts
        zeros = np.zeros(len(unit_coords))
        poisson = AuditSession(unit_coords, zeros, forecast=forecast).run(
            AuditSpec(regions=design, family="poisson",
                      n_worlds=N_WORLDS, seed=1)
        )
        bernoulli = AuditSession(unit_coords, zeros).run(
            AuditSpec(regions=design, n_worlds=N_WORLDS, seed=1)
        )
        for report in (poisson, bernoulli):
            assert report.is_fair and report.p_value == 1.0

    @pytest.mark.parametrize("value", ["3", 2.7, True, 0, -1, [3]])
    def test_bad_n_classes_names_the_field(
        self, unit_coords, biased_labels, value
    ):
        with pytest.raises(ValueError, match=r"^n_classes: "):
            AuditSession(unit_coords, biased_labels, n_classes=value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, "2", "x", True])
    def test_bad_workers_names_the_field(
        self, unit_coords, biased_labels, value
    ):
        with pytest.raises(ValueError, match=r"^workers: "):
            AuditSession(unit_coords, biased_labels, workers=value)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3)])
    def test_integral_n_classes_is_kept_as_int(
        self, unit_coords, biased_labels, value
    ):
        session = AuditSession(unit_coords, biased_labels, n_classes=value)
        assert session.n_classes == 3 and type(session.n_classes) is int

    def test_too_many_centres_name_the_field(self, unit_coords,
                                             biased_labels):
        n = len(unit_coords)
        spec = AuditSpec(regions=RegionSpec.squares(n + 1),
                         n_worlds=N_WORLDS, seed=1)
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(
            ValueError,
            match=rf"^regions.n_centers: {n + 1} centres .* has {n}$",
        ):
            session.run(spec)

    def test_legacy_uncovered_regions_raise_too(self, unit_coords,
                                                biased_labels):
        from repro.geometry import (
            GridPartitioning,
            Rect,
            partition_region_set,
        )

        far = partition_region_set(
            GridPartitioning.regular(Rect(50, 50, 60, 60), 3, 3)
        )
        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="does not cover"):
            auditor.audit(far, n_worlds=N_WORLDS, seed=1)

    def test_legacy_multinomial_is_two_sided_only(
        self, unit_coords, biased_classes, unit_regions
    ):
        auditor = MultinomialSpatialAuditor(unit_coords, biased_classes, 3)
        with pytest.raises(ValueError, match="directional"):
            auditor.audit(
                unit_regions, n_worlds=N_WORLDS, seed=1, direction="lower"
            )

    def test_accuracy_measures_need_y_true(self, unit_coords,
                                           biased_labels):
        dataset = SpatialDataset(coords=unit_coords, y_pred=biased_labels)
        with pytest.raises(ValueError, match="equal_opportunity needs"):
            equal_opportunity(dataset)
        with pytest.raises(ValueError, match="predictive_equality needs"):
            predictive_equality(dataset)

    def test_poisson_without_forecast(self, unit_coords, biased_counts):
        observed, _ = biased_counts
        spec = AuditSpec(regions=UNIT_GRID, family="poisson",
                         n_worlds=N_WORLDS)
        with pytest.raises(ValueError, match="forecast"):
            AuditSession(unit_coords, observed).run(spec)

    def test_measure_without_y_true(self, unit_coords, biased_labels):
        spec = AuditSpec(regions=UNIT_GRID,
                         measure="equal_opportunity",
                         n_worlds=N_WORLDS)
        with pytest.raises(ValueError, match="y_true"):
            AuditSession(unit_coords, biased_labels).run(spec)

    def test_run_rejects_raw_dicts(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="AuditSpec"):
            session.run({"family": "bernoulli"})

    def test_session_shape_checks(self, unit_coords, biased_labels):
        with pytest.raises(ValueError, match="coords"):
            AuditSession(unit_coords[:, 0], biased_labels)
        with pytest.raises(ValueError, match="outcomes"):
            AuditSession(unit_coords, biased_labels[:-1])
        # A short optional array would otherwise fail later, inside the
        # measure or the kernel, with an IndexError.
        short = np.ones(len(unit_coords) - 1)
        for field in ("y_true", "forecast"):
            with pytest.raises(
                ValueError, match=f"^{field}: length does not match coords"
            ):
                AuditSession(unit_coords, biased_labels, **{field: short})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_session_rejects_non_finite_coords(
        self, unit_coords, biased_labels, bad
    ):
        # A NaN point would fall in no region yet still count toward N
        # (explicit bounds), or break the auto-bounds grid; reject it.
        coords = unit_coords.copy()
        coords[3, 1] = bad
        with pytest.raises(ValueError, match="coords: expected finite"):
            AuditSession(coords, biased_labels)
        with pytest.raises(ValueError, match="coords: expected finite"):
            repro.audit(coords, biased_labels)


class TestCorrections:
    def test_fdr_bh_matches_manual_bh(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17,
                         correction="fdr-bh")
        report = session.run(spec)
        assert report.result.correction == "fdr-bh"
        p_values = np.array([f.p_value for f in report.findings])
        llr = np.array([f.llr for f in report.findings])
        expected = benjamini_hochberg(p_values, spec.alpha) & (llr > 0)
        got = np.array([f.significant for f in report.findings])
        assert np.array_equal(got, expected)

    def test_corrections_share_one_simulation(self, unit_coords,
                                              biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        base = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        specs = [
            base,
            replace(base, correction="fdr-bh"),
            replace(base, alpha=0.01),
        ]
        reports = repro.AuditService(session).run_batch(specs)
        assert session.worlds_simulated == N_WORLDS
        solo = AuditSession(unit_coords, biased_labels)
        for spec, report in zip(specs, reports):
            assert report.to_dict(full=True) == solo.run(spec).to_dict(
                full=True
            )


class TestRegistryExtension:
    def test_registered_family_runs_through_the_front_door(
        self, unit_coords, biased_labels, unit_regions
    ):
        """The register-instead-of-subclass contract: a family added
        at runtime is immediately addressable from a spec, and the
        default measures accept it."""
        from repro.core import (
            FAMILIES,
            BernoulliFamily,
            register_family,
        )

        class RenamedBernoulli(BernoulliFamily):
            name = "bernoulli-clone"

        register_family(RenamedBernoulli())
        try:
            spec = AuditSpec(regions=UNIT_GRID,
                             family="bernoulli-clone",
                             n_worlds=N_WORLDS, seed=17)
            assert AuditSpec.from_json(spec.to_json()) == spec
            report = AuditSession(unit_coords, biased_labels).run(spec)
            legacy = SpatialFairnessAuditor(
                unit_coords, biased_labels
            ).audit(unit_regions, n_worlds=N_WORLDS, seed=17)
            assert result_fingerprint(report.result) == (
                result_fingerprint(legacy)
            )
        finally:
            del FAMILIES["bernoulli-clone"]


class TestAuditReport:
    def test_to_dict_is_versioned_json(self, unit_coords, biased_labels):
        report = AuditSession(unit_coords, biased_labels).run(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        )
        payload = report.to_dict()
        json.dumps(payload)  # must be plain JSON types
        assert payload["version"] == 2
        assert "worlds_simulated" not in payload
        assert payload["verdict"] == "unfair"
        assert payload["spec"] == report.spec.to_dict()
        assert payload["n_significant"] == len(
            report.significant_findings
        )
        assert payload["best"]["llr"] == pytest.approx(
            report.result.best_finding.llr
        )
        assert "findings" not in payload

    def test_to_dict_full_ships_every_region(self, unit_coords,
                                             biased_labels):
        report = AuditSession(unit_coords, biased_labels).run(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        )
        payload = report.to_dict(full=True)
        assert len(payload["findings"]) == report.result.n_regions

    def test_report_delegates(self, unit_coords, biased_labels):
        report = AuditSession(unit_coords, biased_labels).run(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=17)
        )
        assert report.p_value == report.result.p_value
        assert len(report.findings) == 25
        assert report.summary().startswith("bernoulli/")


FAMILY_CASES = [
    (family, correction)
    for family in ("bernoulli", "poisson", "multinomial")
    for correction in ("max-stat", "fdr-bh")
]


def _family_session(family, unit_coords, biased_labels, biased_counts,
                    biased_classes):
    observed, forecast = biased_counts
    if family == "poisson":
        return AuditSession(unit_coords, observed, forecast=forecast)
    if family == "multinomial":
        return AuditSession(unit_coords, biased_classes, n_classes=3)
    return AuditSession(unit_coords, biased_labels)


class TestColumnarReport:
    """``to_dict`` builds its region dicts from the result's columns;
    they must equal :meth:`AuditReport._finding_dict` of the lazily
    built findings."""

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize(
        "family,correction", FAMILY_CASES, ids="-".join
    )
    def test_column_dicts_equal_finding_dicts(
        self, family, correction, alpha, unit_coords, biased_labels,
        biased_counts, biased_classes,
    ):
        session = _family_session(
            family, unit_coords, biased_labels, biased_counts,
            biased_classes,
        )
        report = session.run(
            AuditSpec(
                regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
                family=family, n_worlds=N_WORLDS, alpha=alpha, seed=4,
                correction=correction,
            )
        )
        result = report.result
        payload = report.to_dict(full=True)
        as_dict = repro.AuditReport._finding_dict
        assert payload["findings"] == [
            as_dict(f) for f in result.findings
        ]
        assert payload["significant"] == [
            as_dict(f) for f in result.significant_findings
        ]
        assert payload["n_significant"] == len(result.significant_findings)
        assert payload["best"] == as_dict(result.best_finding)
        assert json.dumps(payload) == json.dumps(report.to_dict(full=True))
        assert report.to_dict() == {
            k: v for k, v in payload.items() if k != "findings"
        }
        if alpha == 0.01:  # 49 worlds cannot reach p <= 0.01
            assert payload["significant"] == []

    @pytest.mark.parametrize(
        "family,correction", FAMILY_CASES, ids="-".join
    )
    def test_default_payload_converts_only_its_rows(
        self, family, correction, unit_coords, biased_labels,
        biased_counts, biased_classes,
    ):
        # The default payload's first call converts only the rows it
        # ships, and is byte-identical to the full payload minus
        # "findings" computed afterwards.
        session = _family_session(
            family, unit_coords, biased_labels, biased_counts,
            biased_classes,
        )
        spec = AuditSpec(
            regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
            family=family, n_worlds=N_WORLDS, seed=4,
            correction=correction,
        )
        report = session.run(spec)
        first = json.dumps(report.to_dict())
        assert "_scalars" not in vars(report.result.columns)
        full = report.to_dict(full=True)
        del full["findings"]
        assert first == json.dumps(full)
        assert first == json.dumps(report.to_dict())

    def test_report_survives_a_stream_event(
        self, unit_coords, biased_counts
    ):
        # Findings built after an append must still describe the data
        # the audit saw, not the session's updated membership.
        observed, forecast = biased_counts
        session = AuditSession(
            unit_coords[:500], observed[:500], forecast=forecast[:500]
        )
        spec = AuditSpec(
            regions=UNIT_GRID, family="poisson", n_worlds=N_WORLDS,
            seed=4,
        )
        report = session.run(spec)
        before = json.dumps(report.to_dict(full=True))
        session.append(
            unit_coords[500:], observed[500:], forecast=forecast[500:]
        )
        assert session.run(spec).to_dict(full=True) != json.loads(before)
        assert json.dumps(report.to_dict(full=True)) == before
        assert [f.n for f in report.findings] == [
            d["n"] for d in json.loads(before)["findings"]
        ]


#: Runs every audit path once in a fresh interpreter and prints whether
#: ``scipy.stats`` got imported (it costs ~40 MB of RSS per process).
IMPORT_PROBE = """
import sys
import numpy as np
import repro
from repro import AuditService, AuditSession, AuditSpec, RegionSpec

rng = np.random.default_rng(0)
coords = rng.random((300, 2))
labels = (rng.random(300) < 0.5).astype(np.int8)
forecast = np.full(300, 2.0)
counts = rng.poisson(forecast).astype(np.float64)
classes = rng.integers(0, 3, 300)
grid = RegionSpec.grid(4, 4, bounds=(0.0, 0.0, 1.0, 1.0))
reports = [
    AuditSession(coords, labels).run(
        AuditSpec(regions=grid, n_worlds=19, seed=1)),
    AuditSession(coords, labels).run(
        AuditSpec(regions=RegionSpec.squares(6, sides=(0.2, 0.4)),
                  n_worlds=64, seed=1, budget="adaptive")),
    AuditSession(coords, counts, forecast=forecast).run(
        AuditSpec(regions=grid, family="poisson", n_worlds=19, seed=1)),
    AuditSession(coords, classes, n_classes=3).run(
        AuditSpec(regions=grid, family="multinomial", n_worlds=19,
                  seed=1)),
]
reports += AuditService(AuditSession(coords, labels)).run_batch(
    [AuditSpec(regions=grid, n_worlds=19, seed=s) for s in (1, 2)])
for report in reports:
    report.to_dict(full=True)
    report.summary()
print(len(reports), "scipy.stats" in sys.modules)
"""


def test_audit_paths_do_not_import_scipy_stats():
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["6", "False"]


class TestCommandLine:
    @pytest.fixture()
    def spec_and_data(self, tmp_path, unit_coords, biased_labels):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS,
                      seed=17).to_json()
        )
        data_path = tmp_path / "data.npz"
        np.savez(data_path, coords=unit_coords, y_pred=biased_labels)
        return spec_path, data_path

    def test_run_prints_a_report(self, spec_and_data, capsys):
        from repro.__main__ import main

        spec_path, data_path = spec_and_data
        rc = main(["run", str(spec_path), "--data", str(data_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unfair"
        assert payload["spec"]["n_worlds"] == N_WORLDS

    def test_validate_round_trips(self, spec_and_data, capsys):
        from repro.__main__ import main

        spec_path, _ = spec_and_data
        assert main(["validate", str(spec_path)]) == 0
        echoed = AuditSpec.from_json(capsys.readouterr().out)
        assert echoed == AuditSpec.from_json(spec_path.read_text())

    def test_missing_data_file_exits_1(self, spec_and_data, tmp_path,
                                       capsys):
        from repro.__main__ import main

        spec_path, _ = spec_and_data
        rc = main(["run", str(spec_path), "--data",
                   str(tmp_path / "nope.npz")])
        assert rc == 1
        assert "audit failed" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"family": "bernoulli"}')
        assert main(["validate", str(bad)]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_missing_outcomes_exits(self, tmp_path, unit_coords,
                                    spec_and_data):
        from repro.__main__ import main

        spec_path, _ = spec_and_data
        lonely = tmp_path / "lonely.npz"
        np.savez(lonely, coords=unit_coords)
        with pytest.raises(SystemExit):
            main(["run", str(spec_path), "--data", str(lonely)])

    def test_n_classes_flag_reaches_the_session(self, tmp_path,
                                                unit_coords,
                                                biased_classes, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "multi.json"
        spec_path.write_text(
            AuditSpec(regions=UNIT_GRID, family="multinomial",
                      n_worlds=N_WORLDS, seed=29).to_json()
        )
        data_path = tmp_path / "multi.npz"
        np.savez(data_path, coords=unit_coords, labels=biased_classes)
        # 4 declared classes, though only 3 occur in the labels: the
        # flag must override the inferred count.
        rc = main(["run", str(spec_path), "--data", str(data_path),
                   "--n-classes", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["best"]["class_rates"]) == 4
