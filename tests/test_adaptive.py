"""Unit tests for the adaptive world-budget machinery.

Four layers, matching the threading of :mod:`repro.budget` through the
stack:

* **golden rules** — :func:`repro.budget.sequential_decision`,
  :func:`repro.budget.clopper_pearson` and
  :func:`repro.budget.round_sizes` pinned on hand-computable cases, so
  a refactor cannot silently change the stopping rule;
* **engine stopping** — :meth:`MonteCarloEngine.null_distribution_multi`
  with observed maxima of ``±inf`` forces each trigger on a
  hand-computable schedule, and fused multi-design runs stop each
  segment independently while staying bit-identical to solo runs;
* **calibration** — adaptive p-values stay (conservatively) uniform
  under the null across many seeded trials;
* **agreement & determinism** — adaptive verdicts match fixed-budget
  verdicts at ``alpha=0.05`` across all three families, and the same
  seed + policy reproduces bit-identical reports whatever the worker
  count.
"""

import numpy as np
import pytest

import repro
from repro import AuditService, AuditSession, AuditSpec, RegionSpec
from repro.budget import (
    BUDGET_KINDS,
    BudgetPolicy,
    clopper_pearson,
    round_sizes,
    sequential_decision,
)
from repro.engine import BernoulliKernel, MonteCarloEngine
from repro.index import RegionMembership
from tests.conftest import N_WORLDS

#: The unit grid matching the ``unit_regions`` fixture's geometry.
UNIT_GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))

#: A small-round adaptive policy the 49-world suite budget can stop:
#: rounds of [16, 16, 17] with the Besag-Clifford trigger at 5.
SMALL_ADAPTIVE = {"kind": "adaptive", "initial": 16,
                  "min_exceedances": 5}


def small_policy():
    return BudgetPolicy.parse(SMALL_ADAPTIVE)


class TestBudgetPolicy:
    def test_parse_forms(self):
        assert BudgetPolicy.parse(None).kind == "fixed"
        assert BudgetPolicy.parse("fixed") == BudgetPolicy()
        adaptive = BudgetPolicy.parse("adaptive")
        assert adaptive.is_adaptive
        assert BudgetPolicy.parse(adaptive) is adaptive
        assert BudgetPolicy.parse(
            {"kind": "adaptive", "initial": 64}
        ).initial == 64

    def test_defaults(self):
        policy = BudgetPolicy.parse("adaptive")
        assert policy.initial == 128
        assert policy.growth == 2.0
        assert policy.min_exceedances == 10
        assert policy.confidence == 0.99

    def test_unknown_name_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="budget: unknown"):
            BudgetPolicy.parse("bogus")
        try:
            BudgetPolicy.parse("bogus")
        except ValueError as exc:
            for kind in BUDGET_KINDS:
                assert kind in str(exc)

    def test_unknown_kind_names_field(self):
        with pytest.raises(ValueError, match="budget.kind"):
            BudgetPolicy(kind="turbo")

    def test_bad_type(self):
        with pytest.raises(ValueError, match="budget"):
            BudgetPolicy.parse(3.5)

    def test_fixed_rejects_adaptive_parameters(self):
        with pytest.raises(ValueError, match="budget"):
            BudgetPolicy(kind="fixed", initial=64)

    @pytest.mark.parametrize("field, value", [
        ("initial", 0),
        ("growth", 1.0),
        ("growth", 0.5),
        ("min_exceedances", 0),
        ("confidence", 0.5),
        ("confidence", 1.0),
    ])
    def test_validation_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"budget.{field}"):
            BudgetPolicy(kind="adaptive", **{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="budget"):
            BudgetPolicy.from_dict({"kind": "adaptive", "rounds": 3})

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="budget.kind"):
            BudgetPolicy.from_dict({"initial": 64})

    def test_round_trip(self):
        assert BudgetPolicy().to_dict() == "fixed"
        for policy in (
            BudgetPolicy.parse("adaptive"),
            small_policy(),
            BudgetPolicy(kind="adaptive", growth=1.5, confidence=0.9),
        ):
            assert BudgetPolicy.parse(policy.to_dict()) == policy

    def test_hashable_for_fusion_grouping(self):
        assert len({BudgetPolicy(), BudgetPolicy.parse("fixed")}) == 1
        assert len({BudgetPolicy(), BudgetPolicy.parse("adaptive")}) == 2

    def test_describe(self):
        assert BudgetPolicy().describe() == "fixed"
        assert "adaptive" in small_policy().describe()
        assert "min_exceedances=5" in small_policy().describe()


class TestRoundSizes:
    def test_golden_default_schedule(self):
        policy = BudgetPolicy.parse("adaptive")
        assert round_sizes(policy, 1024) == [128, 128, 256, 512]
        assert round_sizes(policy, 100) == [100]
        assert round_sizes(policy, 129) == [128, 1]

    def test_golden_small_schedule(self):
        assert round_sizes(small_policy(), 49) == [16, 16, 17]

    def test_fixed_is_one_round(self):
        assert round_sizes(BudgetPolicy(), 99) == [99]

    @pytest.mark.parametrize("n", [1, 7, 49, 128, 1000])
    def test_schedule_spends_exactly_the_budget(self, n):
        for policy in (BudgetPolicy(), small_policy()):
            sizes = round_sizes(policy, n)
            assert sum(sizes) == n
            assert all(s >= 1 for s in sizes)

    def test_slow_growth_still_terminates(self):
        policy = BudgetPolicy(kind="adaptive", initial=1, growth=1.01)
        sizes = round_sizes(policy, 64)
        assert sum(sizes) == 64

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="n_worlds"):
            round_sizes(BudgetPolicy(), 0)


class TestSequentialDecision:
    """Golden values; the CP numbers are hand-checkable via
    ``1 - (1 - confidence)/2`` beta quantiles (e.g. the k=0 upper
    bound is ``1 - 0.005**(1/m)`` at confidence 0.99)."""

    def test_golden_ci_below_stops_clearly_unfair(self):
        # k=0 over 128 worlds: the 99% CP upper bound is
        # 1 - 0.005**(1/128) ~= 0.04055 < alpha=0.05 -> settled unfair.
        policy = BudgetPolicy.parse("adaptive")
        decision = sequential_decision(0, 128, 0.05, policy)
        assert decision.stop and decision.reason == "ci-below"
        assert decision.p_hat == pytest.approx(1 / 129)
        assert decision.ci[0] == 0.0
        assert decision.ci[1] == pytest.approx(0.0405481090, abs=1e-9)

    def test_golden_tight_alpha_keeps_going(self):
        # Same count, alpha=0.005: the CI straddles, so no early stop
        # (this is why benchmarks at tight alphas see fewer savings).
        policy = BudgetPolicy.parse("adaptive")
        decision = sequential_decision(0, 128, 0.005, policy)
        assert not decision.stop and decision.reason == "continue"

    def test_golden_exceedances_trigger_and_precedence(self):
        # k=10 reaches min_exceedances; at alpha=0.5 the CI
        # (0.0297, 0.1598) would also stop 'ci-below', so the reason
        # proves Besag-Clifford is checked first.
        policy = BudgetPolicy.parse("adaptive")
        decision = sequential_decision(10, 128, 0.5, policy)
        assert decision.stop and decision.reason == "exceedances"
        assert decision.p_hat == pytest.approx(11 / 129)
        assert decision.ci[0] == pytest.approx(0.0296587191, abs=1e-9)
        assert decision.ci[1] == pytest.approx(0.1598092464, abs=1e-9)

    def test_golden_straddle_continues(self):
        policy = BudgetPolicy.parse("adaptive")
        decision = sequential_decision(5, 128, 0.05, policy)
        assert not decision.stop and decision.reason == "continue"
        assert decision.ci[0] == pytest.approx(0.0085191266, abs=1e-9)
        assert decision.ci[1] == pytest.approx(0.1066516112, abs=1e-9)

    def test_golden_ci_above_stops_clearly_fair(self):
        # k=9 stays under min_exceedances=10, but the CP lower bound
        # 0.02495 already clears alpha=0.01 -> settled fair.
        policy = BudgetPolicy.parse("adaptive")
        decision = sequential_decision(9, 128, 0.01, policy)
        assert decision.stop and decision.reason == "ci-above"
        assert decision.ci[0] == pytest.approx(0.0249519285, abs=1e-9)

    def test_requires_adaptive_policy(self):
        with pytest.raises(ValueError, match="budget"):
            sequential_decision(0, 10, 0.05, BudgetPolicy())

    def test_clopper_pearson_edges(self):
        lo, hi = clopper_pearson(0, 16, confidence=0.99)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.005 ** (1 / 16))
        lo, hi = clopper_pearson(16, 16, confidence=0.99)
        assert hi == 1.0
        assert lo == pytest.approx(0.005 ** (1 / 16))
        with pytest.raises(ValueError, match="m must be"):
            clopper_pearson(0, 0)
        with pytest.raises(ValueError, match="k must lie"):
            clopper_pearson(5, 4)

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_clopper_pearson_equals_beta_ppf(self, confidence):
        # The reference is the textbook form through scipy.stats; the
        # library computes the same quantiles without importing it.
        from scipy.stats import beta

        tail = (1.0 - confidence) / 2.0
        cases = [(k, m) for m in range(1, 65) for k in range(m + 1)]
        cases += [
            (k, m)
            for m in (99, 999, 1023, 4095, 9999)
            for k in (0, 1, 2, m // 20, m // 2, m - 1, m)
        ]
        for k, m in cases:
            lo = 0.0 if k == 0 else float(beta.ppf(tail, k, m - k + 1))
            hi = (
                1.0
                if k == m
                else float(beta.ppf(1.0 - tail, k + 1, m - k))
            )
            assert clopper_pearson(k, m, confidence) == (lo, hi), (k, m)


class TestEngineStopping:
    """Hand-computable Besag-Clifford stops at the engine layer:
    ``observed_max=-inf`` makes every world an exceedance (k == m),
    ``observed_max=+inf`` makes none (k == 0)."""

    @pytest.fixture()
    def engine_setup(self, unit_coords, unit_regions):
        engine = MonteCarloEngine()
        member = RegionMembership(unit_regions, unit_coords)
        kernel = BernoulliKernel(len(unit_coords), 300)
        return engine, member, kernel

    def test_every_world_exceeds_stops_after_first_round(
        self, engine_setup
    ):
        # k = m = 16 >= min_exceedances=5 after round one.
        engine, member, kernel = engine_setup
        null = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[-np.inf], alphas=[0.05],
        )[0]
        assert len(null) == 16

    def test_no_exceedance_tight_alpha_spends_full_budget(
        self, engine_setup
    ):
        # k = 0 and alpha=1e-6: the CI always straddles, so the run
        # must complete all [16, 16, 17] rounds.
        engine, member, kernel = engine_setup
        null = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[np.inf], alphas=[1e-6],
        )[0]
        assert len(null) == N_WORLDS

    def test_no_exceedance_loose_alpha_stops_ci_below(
        self, engine_setup
    ):
        # k=0 at m=16: CP upper bound 1 - 0.005**(1/16) ~= 0.282 < 0.5.
        engine, member, kernel = engine_setup
        null = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[np.inf], alphas=[0.5],
        )[0]
        assert len(null) == 16

    def test_world_stream_independent_of_stopping(self, engine_setup):
        # The stopped run's worlds are the exact prefix of the full
        # run's: stopping decisions never perturb the random streams.
        engine, member, kernel = engine_setup
        full = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[np.inf], alphas=[1e-6],
        )[0]
        stopped = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[np.inf], alphas=[0.5],
        )[0]
        assert np.array_equal(stopped, full[: len(stopped)])

    def test_multi_stops_each_segment_independently(
        self, engine_setup, unit_coords
    ):
        engine, member, kernel = engine_setup
        other = RegionMembership(
            repro.partition_region_set(
                repro.GridPartitioning.regular(
                    repro.Rect(0, 0, 1, 1), 4, 4
                )
            ),
            unit_coords,
        )
        solo = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5, budget=small_policy(),
            observed_maxes=[-np.inf], alphas=[0.05],
        )[0]
        nulls = engine.null_distribution_multi(
            [member, other], kernel, N_WORLDS, seed=5,
            budget=small_policy(),
            observed_maxes=[-np.inf, np.inf], alphas=[0.05, 1e-6],
        )
        assert [len(n) for n in nulls] == [16, N_WORLDS]
        # Fused == solo, bit for bit, whatever the companions do.
        assert np.array_equal(nulls[0], solo)

    def test_adaptive_requires_observed_max(self, engine_setup):
        engine, member, kernel = engine_setup
        with pytest.raises(ValueError, match="observed_max"):
            engine.null_distribution_multi(
                [member], kernel, N_WORLDS, seed=5,
                budget=small_policy(), observed_maxes=[None],
            )
        with pytest.raises(ValueError, match="observed_maxes"):
            engine.null_distribution_multi(
                [member], kernel, N_WORLDS, seed=5,
                budget=small_policy(),
                observed_maxes=[1.0, 2.0],
            )

    def test_fixed_budget_stream_unchanged(
        self, engine_setup, unit_coords
    ):
        # budget='fixed' must be bit-identical to not passing a budget
        # at all (the pre-adaptive behaviour).
        engine, member, kernel = engine_setup
        base = engine.null_distribution_multi(
            [member], kernel, N_WORLDS, seed=5
        )[0]
        engine2 = MonteCarloEngine()
        member2 = RegionMembership(
            repro.partition_region_set(
                repro.GridPartitioning.regular(
                    repro.Rect(0, 0, 1, 1), 5, 5
                )
            ),
            unit_coords,
        )
        fixed = engine2.null_distribution_multi(
            [member2], kernel, N_WORLDS, seed=5, budget="fixed",
            observed_maxes=[0.0], alphas=[0.05],
        )[0]
        assert np.array_equal(base, fixed)

    def test_adaptive_pass_leaves_caller_lists_unchanged(
        self, engine_setup
    ):
        # Regression: _adaptive_pass used to float-coerce
        # observed_maxes *in place*, clobbering the caller's list.
        # (The public entry points happened to pass fresh lists, so
        # only direct callers saw it — hence the direct call here.)
        engine, member, kernel = engine_setup
        observed = [-np.inf]
        alphas = [0.05]
        engine._adaptive_pass(
            [member], kernel, N_WORLDS, 5, None,
            observed, alphas, small_policy(),
        )
        assert observed == [-np.inf]
        assert alphas == [0.05]


class TestCalibration:
    """Adaptive p-values stay (conservatively) uniform under the null."""

    TRIALS = 120

    def _null_p_values(self):
        rng = np.random.default_rng(50)
        coords = rng.random((200, 2))
        p_values = []
        for trial in range(self.TRIALS):
            labels = (
                np.random.default_rng(1000 + trial).random(len(coords))
                < 0.5
            ).astype(np.int8)
            spec = AuditSpec(
                regions=UNIT_GRID, n_worlds=N_WORLDS, seed=trial,
                budget=SMALL_ADAPTIVE,
            )
            report = AuditSession(coords, labels).run(spec)
            p_values.append(report.result.p_value)
        return np.asarray(p_values)

    def test_empirical_cdf_is_uniform(self):
        p_values = self._null_p_values()
        # With 120 fixed-seed trials the binomial sd at t=0.5 is
        # ~0.046; a 0.13 band is ~3 sd, and deterministic besides.
        for t in np.arange(0.1, 1.0, 0.1):
            ecdf = float(np.mean(p_values <= t))
            assert abs(ecdf - t) < 0.13, (t, ecdf)

    def test_false_positive_rate_controlled(self):
        p_values = self._null_p_values()
        # Validity, not just uniformity: reject at most ~alpha + 2 sd.
        assert float(np.mean(p_values <= 0.05)) <= 0.10
        # And the floor every Monte Carlo p-value respects.
        assert p_values.min() >= 1.0 / (N_WORLDS + 1)


class TestAgreementAndDeterminism:
    def _sessions(
        self, family, unit_coords, biased_labels, biased_counts,
        biased_classes, workers=None,
    ):
        if family == "bernoulli":
            return AuditSession(
                unit_coords, biased_labels, workers=workers
            )
        if family == "poisson":
            observed, forecast = biased_counts
            return AuditSession(
                unit_coords, observed, forecast=forecast,
                workers=workers,
            )
        return AuditSession(
            unit_coords, biased_classes, n_classes=3, workers=workers
        )

    @pytest.mark.parametrize(
        "family", ["bernoulli", "poisson", "multinomial"]
    )
    def test_adaptive_agrees_with_fixed_verdict(
        self, family, unit_coords, biased_labels, biased_counts,
        biased_classes,
    ):
        session = self._sessions(
            family, unit_coords, biased_labels, biased_counts,
            biased_classes,
        )
        fixed = session.run(AuditSpec(
            regions=UNIT_GRID, family=family, n_worlds=N_WORLDS,
            seed=13, alpha=0.05,
        ))
        adaptive = session.run(AuditSpec(
            regions=UNIT_GRID, family=family, n_worlds=N_WORLDS,
            seed=13, alpha=0.05, budget=SMALL_ADAPTIVE,
        ))
        assert fixed.result.is_fair == adaptive.result.is_fair
        assert adaptive.result.n_worlds <= N_WORLDS

    def test_golden_fair_run_stops_at_first_round(self, unit_coords):
        # Pinned end-to-end stop: unbiased labels (data seed 1) hit
        # k >= 5 within the first 16 worlds.
        labels = (
            np.random.default_rng(1).random(len(unit_coords)) < 0.5
        ).astype(np.int8)
        report = AuditSession(unit_coords, labels).run(AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3,
            budget=SMALL_ADAPTIVE,
        ))
        payload = report.to_dict()
        assert payload["verdict"] == "fair"
        assert payload["stopped_early"] is True
        assert payload["n_worlds_requested"] == N_WORLDS
        assert payload["n_worlds"] == 16
        lo, hi = payload["p_value_ci"]
        assert 0.0 <= lo <= hi <= 1.0
        assert "stopped early" in report.result.summary()

    def test_golden_second_round_stop(self, unit_coords):
        # Data seed 21 needs two rounds (k crosses 5 between 16 and 32).
        labels = (
            np.random.default_rng(21).random(len(unit_coords)) < 0.5
        ).astype(np.int8)
        payload = AuditSession(unit_coords, labels).run(AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3,
            budget=SMALL_ADAPTIVE,
        )).to_dict()
        assert payload["n_worlds"] == 32

    def test_same_seed_same_report_any_workers(
        self, unit_coords, biased_labels,
    ):
        spec = AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=13,
            budget=SMALL_ADAPTIVE,
        )
        serial = AuditSession(
            unit_coords, biased_labels, workers=1
        ).run(spec)
        pooled = AuditSession(
            unit_coords, biased_labels, workers=3
        ).run(spec)
        assert serial.to_dict(full=True) == pooled.to_dict(full=True)

    def test_fused_adaptive_identical_to_solo(
        self, unit_coords, biased_labels,
    ):
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                      budget=SMALL_ADAPTIVE),
            AuditSpec(regions=RegionSpec.grid(8, 8), n_worlds=N_WORLDS,
                      seed=11, budget=SMALL_ADAPTIVE),
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                      alpha=0.01, budget=SMALL_ADAPTIVE),
        ]
        service = AuditService(AuditSession(unit_coords, biased_labels))
        assert service.plan(specs) == [[0, 1, 2]]
        reports = service.run_batch(specs)
        assert service.stats()["fused_groups"] == 1
        solo = AuditSession(unit_coords, biased_labels)
        for spec, report in zip(specs, reports):
            assert report.to_dict(full=True) == (
                solo.run(spec).to_dict(full=True)
            )

    def test_budget_splits_fusion_groups(
        self, unit_coords, biased_labels,
    ):
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11),
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                      budget=SMALL_ADAPTIVE),
        ]
        service = AuditService(AuditSession(unit_coords, biased_labels))
        assert service.plan(specs) == [[0], [1]]

    def test_builder_budget_setter(self, unit_coords, biased_labels):
        report = (
            repro.audit(unit_coords, biased_labels)
            .partition(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))
            .worlds(N_WORLDS)
            .seed(13)
            .budget(SMALL_ADAPTIVE)
            .run()
        )
        spec_budget = report.spec.budget
        assert spec_budget.is_adaptive
        assert spec_budget.min_exceedances == 5
