"""Unit tests for :mod:`repro.engine`: chunk layout, caching, the
worker thread pool, and the engine's determinism contract through all
three auditors (the seed-stability golden tests)."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tests.conftest import N_WORLDS
from repro import AuditSession, AuditSpec, RegionSpec
from repro import engine as engine_mod
from repro.core import (
    MultinomialSpatialAuditor,
    PoissonSpatialAuditor,
    SpatialFairnessAuditor,
)
from repro.engine import (
    BernoulliKernel,
    LLRKernel,
    MonteCarloEngine,
    MultinomialKernel,
    PoissonKernel,
    world_chunk_size,
)
from repro.index import RegionMembership, StackedMembership


def make_kernel(family, coords, labels, counts, classes):
    """A fresh kernel of ``family`` over the golden datasets."""
    if family == "bernoulli":
        return BernoulliKernel(len(coords), int(labels.sum()))
    if family == "poisson":
        observed, forecast = counts
        total = float(observed.sum())
        return PoissonKernel(forecast * (total / forecast.sum()), total)
    return MultinomialKernel(
        len(coords), np.bincount(classes, minlength=3)
    )


def fixed_chunks(patch, size):
    """Patch the engine's chunk size to ``size`` worlds."""
    patch.setattr(engine_mod, "world_chunk_size", lambda points, worlds: size)


def null_pass(coords, regions, kernel, workers, seed=7):
    """A fixed-budget null pass of six 8-world chunks on a fresh
    engine."""
    with pytest.MonkeyPatch.context() as patch:
        fixed_chunks(patch, 8)
        return MonteCarloEngine().null_distribution_multi(
            [RegionMembership(regions, coords)], kernel, 48, seed=seed,
            workers=workers,
        )[0]


def result_fingerprint(result):
    """Everything the determinism contract promises to reproduce."""
    return (
        result.is_fair,
        result.p_value,
        result.critical_value,
        tuple(f.index for f in result.significant_findings),
        tuple(f.llr for f in result.findings),
        tuple(f.p_value for f in result.findings),
    )


class TestChunking:
    def test_chunk_size_bounds(self):
        assert world_chunk_size(100, 4) == 4
        assert world_chunk_size(100, 100) >= 8
        # Huge point counts cap the chunk near the memory budget.
        assert world_chunk_size(25_000_000, 999) == 8

    def test_chunk_layout_ignores_worker_config(
        self, monkeypatch, unit_coords, unit_regions
    ):
        # The determinism contract depends on the layout never seeing
        # the worker count: passes asking for different pools must lay
        # out the same chunk spans for the same workload.
        layouts = []
        layout = MonteCarloEngine.chunk_layout

        def recorded(chunk_points, n_worlds):
            layouts.append(layout(chunk_points, n_worlds))
            return layouts[-1]

        monkeypatch.setattr(
            MonteCarloEngine, "chunk_layout", staticmethod(recorded)
        )
        member = RegionMembership(unit_regions, unit_coords)
        kernel = BernoulliKernel(len(unit_coords), len(unit_coords) // 2)
        for n_worlds in (5, 49, 199):
            for workers in (1, 8):
                MonteCarloEngine().null_distribution_multi(
                    [member], kernel, n_worlds, seed=3, workers=workers
                )
            assert layouts[-1] == layouts[-2]

    def test_layout_covers_budget_contiguously(self):
        for n_worlds in (1, 7, 48, 49, 199):
            layout = MonteCarloEngine.chunk_layout(1000, n_worlds)
            assert layout[0][0] == 0
            assert sum(w for _, w in layout) == n_worlds
            for (s0, w0), (s1, _) in zip(layout, layout[1:]):
                assert s1 == s0 + w0

    def test_layout_respects_override(self, monkeypatch):
        fixed_chunks(monkeypatch, 6)
        layout = MonteCarloEngine.chunk_layout(1000, 20)
        assert [(s, w) for s, w in layout] == [
            (0, 6), (6, 6), (12, 6), (18, 2),
        ]


class TestKernelContract:
    def test_unbound_kernel_refuses_to_score(self):
        kernel = BernoulliKernel(100, 50)
        with pytest.raises(RuntimeError, match="bound"):
            kernel.count(np.zeros((100, 4), dtype=np.float32))

    def test_base_kernel_is_abstract(self):
        kernel = LLRKernel()
        with pytest.raises(NotImplementedError):
            kernel.cache_key()
        with pytest.raises(NotImplementedError):
            kernel.chunk_points

    def test_poisson_worlds_exact_past_2_24(self):
        # One area's count passes 2**24, where float32 integers stop
        # being exact: every simulated world must still redistribute
        # exactly the observed total.
        expected = np.array([2e7, 1e7 + 3, 5.0])
        kernel = PoissonKernel(expected, expected.sum())
        worlds = kernel.simulate(np.random.default_rng(0), 6)
        assert (worlds[0] > 2**24).all()
        totals = worlds.astype(np.float64).sum(axis=0)
        assert (totals == kernel.total_obs_int).all()
        assert worlds.dtype == np.float64

    def test_cache_keys_distinguish_designs(self):
        keys = {
            BernoulliKernel(100, 50).cache_key(),
            BernoulliKernel(100, 50, direction=1).cache_key(),
            BernoulliKernel(100, 60).cache_key(),
            PoissonKernel(np.full(10, 5.0), 50.0).cache_key(),
            PoissonKernel(np.full(10, 5.0), 50.0, direction=-1).cache_key(),
            MultinomialKernel(100, np.array([30, 70])).cache_key(),
        }
        assert len(keys) == 6


class _EdgeUniforms:
    """A generator stub whose uniforms cycle through the largest double
    below 1 and 1 itself."""

    def random(self, size):
        return np.resize([np.nextafter(1.0, 0.0), 1.0], size)


def _alias_forecast(n_areas: int, seed: int = 3) -> np.ndarray:
    """Skewed forecasts with ~10% zero areas (area 0 always positive)."""
    rng = np.random.default_rng(seed)
    forecast = rng.gamma(2.0, 1.0, n_areas)
    forecast[1:][rng.random(n_areas - 1) < 0.1] = 0.0
    return forecast


def _where_worlds(kernel, rng, n_worlds, piece):
    """The alias draw as ``np.where`` over :func:`_alias_table`'s
    ``(keep, alias)``, with a clamp at the last column: the reference
    the kernel's one-gather draw must match bit for bit."""
    keep, alias = engine_mod._alias_table(kernel.probs)
    n_areas = len(keep)
    worlds = np.zeros((n_areas, n_worlds))
    for j in range(n_worlds):
        for start in range(0, kernel.total_obs_int, piece):
            u = rng.random(min(piece, kernel.total_obs_int - start))
            u = u * n_areas
            col = np.minimum(u.astype(np.intp), n_areas - 1)
            events = np.where(u - col < keep[col], col, alias[col])
            worlds[:, j] += np.bincount(events, minlength=n_areas)
    return worlds


class TestPoissonAliasDraw:
    """The Poisson points pass draws each world's events from a Walker
    alias table of the area probabilities."""

    @pytest.mark.parametrize("n_areas", [1, 2, 7, 20_000])
    def test_draw_equals_the_where_form(self, n_areas):
        forecast = _alias_forecast(n_areas)
        total = 2.0 * n_areas + 1
        kernel = PoissonKernel(forecast * (total / forecast.sum()), total)
        assert kernel._draws_events()
        worlds = kernel.simulate(np.random.default_rng(11), 4)
        reference = _where_worlds(
            kernel, np.random.default_rng(11), 4, engine_mod._ALIAS_EVENTS
        )
        assert np.array_equal(worlds, reference)
        assert (worlds[forecast == 0.0] == 0.0).all()

    def test_world_of_several_pieces_equals_the_where_form(
        self, monkeypatch
    ):
        # 7 events per piece: each 50-event world takes 8 fills.
        monkeypatch.setattr(engine_mod, "_ALIAS_EVENTS", 7)
        forecast = _alias_forecast(40)
        kernel = PoissonKernel(forecast * (50.0 / forecast.sum()), 50.0)
        worlds = kernel.simulate(np.random.default_rng(3), 5)
        reference = _where_worlds(kernel, np.random.default_rng(3), 5, 7)
        assert np.array_equal(worlds, reference)
        assert (worlds.sum(axis=0) == 50.0).all()

    def test_table_is_built_once_per_state(
        self, monkeypatch, unit_coords
    ):
        builds = []

        def spy(probs):
            builds.append(len(probs))
            return table(probs)

        table = engine_mod._alias_table
        monkeypatch.setattr(engine_mod, "_alias_table", spy)
        rng = np.random.default_rng(8)
        forecast = _alias_forecast(len(unit_coords))
        observed = rng.poisson(forecast).astype(np.float64)
        assert observed.sum() <= 3 * len(unit_coords)
        squares = AuditSpec(
            regions=GOLDEN_DESIGNS["squares"], family="poisson",
            n_worlds=16, seed=1,
        )
        session = AuditSession(unit_coords, observed, forecast=forecast)
        session.run(squares)
        session.run(replace(squares, seed=2, direction="higher"))
        assert builds == [len(unit_coords)]
        session.append(
            rng.random((10, 2)), np.ones(10), forecast=np.full(10, 2.0)
        )
        session.run(squares)
        assert builds == [len(unit_coords), len(unit_coords) + 10]
        # A grid is disjoint: its region-level pass draws no events.
        session.run(replace(squares, regions=GOLDEN_DESIGNS["grid"]))
        assert len(builds) == 2
        # Above 3 events per area the points pass keeps the multinomial.
        dense = AuditSession(unit_coords, observed + 3.0, forecast=forecast)
        dense.run(squares)
        assert len(builds) == 2

    @pytest.mark.parametrize("n_areas", [1, 2, 7, 1000, 20_000])
    def test_table_reproduces_the_probabilities(self, n_areas):
        forecast = _alias_forecast(n_areas)
        keep, alias = engine_mod._alias_table(forecast)
        assert ((keep >= 0.0) & (keep <= 1.0)).all()
        implied = (
            keep + np.bincount(alias, weights=1.0 - keep, minlength=n_areas)
        ) / n_areas
        np.testing.assert_allclose(
            implied, forecast / forecast.sum(), rtol=1e-11, atol=0.0
        )

    def test_worlds_hold_the_total_and_skip_zero_areas(self):
        forecast = _alias_forecast(2_000)
        total = 5_000.0
        kernel = PoissonKernel(forecast * (total / forecast.sum()), total)
        worlds = kernel.simulate(np.random.default_rng(0), 64)
        assert worlds.dtype == np.float64 and worlds.flags.c_contiguous
        assert worlds.shape == (2_000, 64)
        assert (worlds.sum(axis=0) == kernel.total_obs_int).all()
        assert (forecast == 0.0).sum() > 100
        assert (worlds[forecast == 0.0] == 0.0).all()

    def test_alias_stream_is_pinned(self):
        # The alias draw's stream, across numpy versions: it reads only
        # ``rng.random``, whose stream numpy keeps stable.
        forecast = np.array([1.0, 0.0, 2.5, 0.5, 3.0, 1.0, 4.0])
        kernel = PoissonKernel(forecast * (15.0 / forecast.sum()), 15.0)
        worlds = kernel.simulate(np.random.default_rng(0), 3)
        assert worlds.T.astype(int).tolist() == [
            [4, 0, 1, 0, 2, 2, 6],
            [1, 0, 2, 0, 7, 0, 5],
            [0, 0, 1, 0, 8, 1, 5],
        ]

    def test_large_totals_keep_the_multinomial(self, unit_coords):
        # Above 3 events per area a world costs one binomial per area,
        # not one uniform per event: the draw is rng.multinomial's, bit
        # for bit, and no alias table is built.
        forecast = _alias_forecast(len(unit_coords))
        regions = GOLDEN_DESIGNS["squares"].build(unit_coords)
        member = RegionMembership(regions, unit_coords)
        cap = 3.0 * len(unit_coords)
        for total, alias in ((cap, True), (cap + 1, False), (1e9, False)):
            kernel = PoissonKernel(forecast * (total / forecast.sum()), total)
            kernel.bind(member)
            assert kernel._draws_events() is alias
            assert ("alias" in kernel._tables) is alias
            worlds = kernel.simulate(np.random.default_rng(4), 5)
            draws = np.random.default_rng(4).multinomial(
                kernel.total_obs_int, kernel.probs, size=5
            )
            assert np.array_equal(worlds, draws.T) is not alias

    @pytest.mark.parametrize("k", [10, 14, 20])
    def test_top_uniform_stays_in_the_table(self, k):
        # K = 2**k + 1 areas, the last one zero-forecast.  An index of K
        # would read past the table's K columns.  No double below 1
        # reaches u * K == K under round-to-nearest, so the stub also
        # feeds u = 1, which the sentinel column sends to the last
        # column's alias.
        n_areas = 2**k + 1
        forecast = np.ones(n_areas)
        forecast[-1] = 0.0
        kernel = PoissonKernel(forecast * (7.0 / forecast.sum()), 7.0)
        worlds = kernel.simulate(_EdgeUniforms(), 3)
        assert worlds[-1].sum() == 0.0
        assert (worlds.sum(axis=0) == 7.0).all()
        # The table's sentinel column draws what the clamp drew.
        assert np.array_equal(
            worlds, _where_worlds(kernel, _EdgeUniforms(), 3, 7)
        )

    def test_null_maxima_match_a_multinomial_draw(self, unit_coords):
        # Two events per area, as in a sparse count audit.
        forecast = _alias_forecast(len(unit_coords))
        total = 2.0 * len(unit_coords)
        kernel = PoissonKernel(forecast * (total / forecast.sum()), total)
        assert kernel._draws_events()
        regions = GOLDEN_DESIGNS["squares"].build(unit_coords)
        member = RegionMembership(regions, unit_coords)
        assert not member.disjoint
        alias = MonteCarloEngine().null_distribution_multi(
            [member], kernel, 2000, seed=1
        )[0]
        draws = np.random.default_rng(2).multinomial(
            kernel.total_obs_int, kernel.probs, size=2000
        )
        worlds = np.ascontiguousarray(draws.T, dtype=np.float64)
        multinomial = kernel.llr(kernel.count(worlds)).max(axis=0)
        assert stats.ks_2samp(alias, multinomial).pvalue > 0.001


def _unit_kernel(units, rate):
    """A Bernoulli kernel over ``units`` at ``rate``, set up as a bind
    to a disjoint design with those unit sizes would set it up."""
    units = np.asarray(units)
    n_points = int(units.sum())
    kernel = BernoulliKernel(n_points, rate * n_points)
    kernel._units = units
    kernel._table = kernel._draw_table()
    return kernel


def _implied_masses(kernel, unit):
    """``(outcomes, masses)`` of one unit's table row: the row's own
    outcomes, and each outcome ``0..n``'s probability under the row's
    alias draw."""
    width, offset, keep, pair = kernel._table
    cols = offset[unit, 0] + np.arange(int(width[unit, 0]))
    own = pair[2 * cols + 1].astype(np.intp)
    alias = pair[2 * cols].astype(np.intp)
    size = int(kernel._units[unit]) + 1
    masses = np.bincount(
        own, weights=keep[cols], minlength=size
    ) + np.bincount(alias, weights=1.0 - keep[cols], minlength=size)
    return own, masses / len(cols)


class _TopUniforms:
    """A generator stub whose uniforms are all the largest double
    below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestBinomialAliasDraw:
    """A Bernoulli region-level pass draws each unit's count from a
    Walker alias table of its ``Binomial(n, rate)``, one row per
    distinct unit size."""

    SIZES = [0, 1, 7, 250, 10**6]

    @pytest.mark.parametrize("rate", [0.0, 1e-6, 0.3, 0.5, 1 - 1e-6, 1.0])
    def test_rows_reproduce_the_pmf(self, rate):
        kernel = _unit_kernel(self.SIZES, rate)
        keep = kernel._table[2]
        assert ((keep >= 0.0) & (keep <= 1.0)).all()
        for unit, n in enumerate(self.SIZES):
            own, masses = _implied_masses(kernel, unit)
            first, last = own[0], own[-1]
            assert np.array_equal(own, np.arange(first, last + 1))
            # Nothing outside the row's own outcomes is ever drawn.
            assert masses[:first].sum() == masses[last + 1 :].sum() == 0.0
            np.testing.assert_allclose(
                masses[own],
                stats.binom.pmf(own, n, kernel.rate),
                rtol=1e-9,
                atol=0.0,
            )
            trimmed = stats.binom.cdf(first - 1, n, kernel.rate) + (
                stats.binom.sf(last, n, kernel.rate)
            )
            assert trimmed <= 2.0**-50

    def test_rows_match_tables_built_one_by_one(self):
        # Skewed rows with zero weights, lone columns and a uniform row
        # (no small and no large): each row of the one segmented build
        # implies the masses its own single-row table implies.
        sizes = [1, 7, 2, 300, 1, 40]
        rows = [_alias_forecast(n, seed) for seed, n in enumerate(sizes)]
        rows += [np.ones(5), _alias_forecast(2_000, 9)]
        widths = np.array([len(r) for r in rows])
        keep, alias = engine_mod._alias_table(np.concatenate(rows), widths)

        def masses(keep, alias):
            taken = np.bincount(alias, weights=1.0 - keep, minlength=len(keep))
            return (keep + taken) / len(keep)

        start = 0
        for probs in rows:
            cols = slice(start, start + len(probs))
            assert ((alias[cols] >= start) & (alias[cols] < cols.stop)).all()
            implied = masses(keep[cols], alias[cols] - start)
            alone = masses(*engine_mod._alias_table(probs))
            np.testing.assert_allclose(implied, alone, rtol=1e-11, atol=0.0)
            assert (implied[probs == 0.0] == 0.0).all()
            start = cols.stop

    @pytest.mark.parametrize("rate", [1e-6, 0.03, 0.5, 0.97])
    def test_table_holds_at_most_n_plus_r_plus_1_entries(self, rate):
        rng = np.random.default_rng(6)
        designs = [
            np.arange(40),  # all distinct, none trimmed at 0.5
            rng.integers(0, 400, 61),
            np.append(rng.integers(0, 30, 200), 100_000),
        ]
        for units in designs:
            kernel = _unit_kernel(units, rate)
            assert len(kernel._table[2]) <= units.sum() + len(units)
            assert len(kernel._table[3]) == 2 * len(kernel._table[2])

    def test_counts_follow_the_binomial(self):
        sizes = [1, 7, 60, 250]
        kernel = _unit_kernel(sizes, 0.3)
        worlds = kernel.simulate(np.random.default_rng(12), 20_000)
        assert worlds.dtype == np.float64 and worlds.flags.c_contiguous
        for n, counts in zip(sizes, worlds):
            observed = np.bincount(counts.astype(np.intp), minlength=n + 1)
            expected = stats.binom.pmf(np.arange(n + 1), n, kernel.rate)
            expected *= len(counts)
            # Pool the sparse tails into their neighbours.
            fat = expected >= 5.0
            lo, hi = np.flatnonzero(fat)[[0, -1]]
            obs = np.r_[observed[: lo + 1].sum(), observed[lo + 1 : hi],
                        observed[hi:].sum()]
            exp = np.r_[expected[: lo + 1].sum(), expected[lo + 1 : hi],
                        expected[hi:].sum()]
            exp *= obs.sum() / exp.sum()
            assert stats.chisquare(obs, exp).pvalue > 0.001

    def test_top_uniform_stays_in_its_row(self):
        # Rows lie end to end with no sentinel: the largest uniform
        # must still read the last column of its own unit's row.
        kernel = _unit_kernel([3, 500, 2, 0], 0.5)
        worlds = kernel.simulate(_TopUniforms(), 2)
        for unit, counts in enumerate(worlds):
            own, _ = _implied_masses(kernel, unit)
            assert np.isin(counts, own).all()

    def test_alias_stream_is_pinned(self):
        # The draw reads only ``rng.random``, whose stream numpy keeps
        # stable, and a table built from products and quotients alone.
        kernel = _unit_kernel([0, 1, 4, 9, 30, 6], 0.3)
        worlds = kernel.simulate(np.random.default_rng(0), 3)
        assert worlds.T.astype(int).tolist() == [
            [0, 0, 3, 3, 10, 1],
            [0, 0, 0, 3, 6, 2],
            [0, 0, 2, 0, 9, 3],
        ]

    def test_table_is_built_once_per_state_and_design(
        self, monkeypatch, unit_coords, biased_labels
    ):
        builds = []

        def spy(sizes, rate):
            builds.append(len(sizes))
            return rows(sizes, rate)

        rows = engine_mod._binomial_rows
        monkeypatch.setattr(engine_mod, "_binomial_rows", spy)
        grid = AuditSpec(
            regions=GOLDEN_DESIGNS["grid"], n_worlds=16, seed=1
        )
        session = AuditSession(unit_coords, biased_labels)
        session.run(grid)
        session.run(replace(grid, seed=2, direction="lower"))
        assert len(builds) == 1
        session.run(replace(grid, regions=RegionSpec.grid(3, 3)))
        assert len(builds) == 2
        # A stream event's new state builds its own.
        session.append(np.full((5, 2), 0.5), np.ones(5, dtype=np.int8))
        session.run(grid)
        assert len(builds) == 3
        # The points pass of an overlapping design builds none.
        session.run(replace(grid, regions=GOLDEN_DESIGNS["squares"]))
        assert len(builds) == 3


class TestNullCache:
    """The engine keeps no null distributions: a repeat re-simulates
    bit for bit, and duplicate designs get private copies."""

    def test_repeat_design_is_bit_identical(self, unit_coords,
                                            unit_regions, biased_labels):
        engine = MonteCarloEngine()
        member = RegionMembership(unit_regions, unit_coords)
        P = int(biased_labels.sum())
        first = engine.null_distribution_multi(
            [member], BernoulliKernel(len(unit_coords), P), N_WORLDS, seed=5
        )[0]
        second = engine.null_distribution_multi(
            [member], BernoulliKernel(len(unit_coords), P), N_WORLDS, seed=5
        )[0]
        # The engine keeps no nulls: the repeat re-simulates.
        assert engine.worlds_simulated == 2 * N_WORLDS
        assert np.array_equal(first, second)

    def test_duplicate_members_get_private_copies(
        self, unit_coords, unit_regions, biased_labels
    ):
        engine = MonteCarloEngine()
        member = RegionMembership(unit_regions, unit_coords)
        kernel = BernoulliKernel(len(unit_coords), int(biased_labels.sum()))
        rows = engine.null_distribution_multi(
            [member, member], kernel, N_WORLDS, seed=5
        )
        assert engine.worlds_simulated == N_WORLDS
        assert np.array_equal(rows[0], rows[1])
        rows[0][:] = -1.0  # caller mutates one entry's copy
        assert (rows[1] >= 0.0).all()

    def test_membership_is_cached_per_region_set(
        self, unit_coords, unit_regions, biased_labels
    ):
        auditor = SpatialFairnessAuditor(unit_coords, biased_labels)
        assert auditor.membership(unit_regions) is auditor.membership(
            unit_regions
        )
        assert auditor.engine.index_builds == 1


#: A fused group mixing region-level and points passes over the unit
#: points: both grids are disjoint there, the nested squares are not.
MIXED_DESIGNS = (
    RegionSpec.grid(5, 5, bounds=(0, 0, 1, 1)),
    RegionSpec.squares(8, sides=(0.2, 0.35)),
    RegionSpec.grid(3, 3, bounds=(0, 0, 1, 1)),
)

FAMILIES = ["bernoulli", "poisson", "multinomial"]


class TestWorkersBitIdentical:
    """The engine's core promise: the null distribution is the same
    array no matter how many threads simulated it."""

    @pytest.mark.parametrize("family", ["bernoulli", "poisson",
                                        "multinomial"])
    def test_parallel_equals_serial(self, family, unit_coords,
                                    unit_regions, biased_labels,
                                    biased_counts, biased_classes):
        # The unit grid is disjoint: this is the region-level pass.
        assert RegionMembership(unit_regions, unit_coords).disjoint
        data = (unit_coords, biased_labels, biased_counts, biased_classes)
        serial = null_pass(
            unit_coords, unit_regions, make_kernel(family, *data), 1
        )
        parallel = null_pass(
            unit_coords, unit_regions, make_kernel(family, *data), 2
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_points_pass_parallel_equals_serial(
        self, family, unit_coords, biased_labels, biased_counts,
        biased_classes,
    ):
        squares = MIXED_DESIGNS[1].build(unit_coords)
        assert not RegionMembership(squares, unit_coords).disjoint
        data = (unit_coords, biased_labels, biased_counts, biased_classes)
        serial = null_pass(unit_coords, squares, make_kernel(family, *data), 1)
        parallel = null_pass(
            unit_coords, squares, make_kernel(family, *data), 2
        )
        assert np.array_equal(serial, parallel)


class TestRegionLevelPass:
    """Disjoint designs simulate one count per unit and skip the
    recount; the split keeps every determinism contract."""

    @pytest.fixture()
    def data(self, unit_coords, biased_labels, biased_counts,
             biased_classes):
        return (unit_coords, biased_labels, biased_counts, biased_classes)

    @pytest.mark.parametrize("budget", ["fixed", "adaptive"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mixed_fused_group_equals_solo(self, family, budget, data):
        coords = data[0]
        adaptive = {"kind": "adaptive", "initial": 8}
        options = dict(
            seed=7, budget=adaptive if budget == "adaptive" else None
        )
        engine = MonteCarloEngine()
        members = [
            RegionMembership(design.build(coords), coords)
            for design in MIXED_DESIGNS
        ]
        assert [m.disjoint for m in members] == [True, False, True]
        fused = engine.null_distribution_multi(
            members, make_kernel(family, *data), N_WORLDS,
            observed_maxes=[5.0] * len(members), **options,
        )
        for member, got in zip(members, fused):
            solo = MonteCarloEngine().null_distribution_multi(
                [RegionMembership(member.regions, coords)],
                make_kernel(family, *data), N_WORLDS,
                observed_maxes=[5.0], **options,
            )[0]
            assert got.tobytes() == solo.tobytes()
        assert engine.worlds_simulated == max(len(n) for n in fused)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_region_level_pass_never_recounts(
        self, family, data, unit_regions, monkeypatch
    ):
        calls = []
        for cls in (RegionMembership, StackedMembership):
            recount = cls.positive_counts_batch

            def spy(self, worlds, recount=recount):
                calls.append(type(self).__name__)
                return recount(self, worlds)

            monkeypatch.setattr(cls, "positive_counts_batch", spy)
        coords = data[0]
        null_pass(coords, unit_regions, make_kernel(family, *data), 1)
        assert calls == []
        # The spy does see a points pass.
        squares = MIXED_DESIGNS[1].build(coords)
        null_pass(coords, squares, make_kernel(family, *data), 1)
        assert calls

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_row_per_unit(self, family, data):
        # A grid over the lower-left quarter: most points fall in the
        # remainder unit.
        coords = data[0]
        regions = RegionSpec.grid(2, 2, bounds=(0, 0, 0.5, 0.5)).build(
            coords
        )
        member = RegionMembership(regions, coords)
        assert member.disjoint
        kernel = make_kernel(family, *data).bind(member)
        worlds = kernel.simulate(np.random.default_rng(0), 6)
        assert worlds.shape[:2] == (len(member) + 1, 6)
        assert worlds.dtype == np.float64
        assert kernel.llr(kernel.count(worlds)).shape == (len(member), 6)
        per_unit = worlds if worlds.ndim == 2 else worlds.sum(axis=2)
        if family == "poisson":
            assert (per_unit.sum(axis=0) == kernel.total_obs_int).all()
        else:
            sizes = np.append(member.counts, len(coords) - member.counts.sum())
            assert (per_unit <= sizes[:, None]).all()
            if family == "multinomial":
                assert (per_unit == sizes[:, None]).all()


class TestBlockedScoring:
    """Each chunk is simulated and counted on its own; the LLR and the
    per-world maxima run once per block of chunks.  The statistic is
    elementwise per world, so no block layout changes a bit."""

    @pytest.fixture()
    def data(self, unit_coords, biased_labels, biased_counts,
             biased_classes):
        return (unit_coords, biased_labels, biased_counts, biased_classes)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("design", ["grid", "squares"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_world_blocks_equal_one_block(
        self, family, design, workers, data, monkeypatch
    ):
        coords = data[0]
        regions = GOLDEN_DESIGNS[design].build(coords)
        member = RegionMembership(regions, coords)
        assert member.disjoint == (design == "grid")

        def run():
            return MonteCarloEngine().null_distribution_multi(
                [RegionMembership(regions, coords)],
                make_kernel(family, *data), 48, seed=7, workers=workers,
            )[0]

        fixed_chunks(monkeypatch, 1)
        layout = MonteCarloEngine.chunk_layout(1, 48)
        assert engine_mod._blocks(layout, len(member)) == [(0, 48)]
        one_block = run()
        monkeypatch.setattr(engine_mod, "_BLOCK_ENTRIES", 1)
        assert len(engine_mod._blocks(layout, len(member))) == 48
        assert run().tobytes() == one_block.tobytes()


class TestObservedIsOneWorld:
    """The observed scan and the null worlds share the LLR kernels: the
    observed outcomes, scored as a one-world batch through the bound
    kernel, give the observed LLR bit for bit."""

    @staticmethod
    def one_world(family, bound, member):
        """The observed data as the batch ``simulate`` would return."""
        if family == "bernoulli":
            values = bound["labels"].astype(np.float64)
        elif family == "poisson":
            values = bound["observed"]
        else:
            values = bound["labels"]
        if not member.disjoint:
            return values[:, None]
        if family == "multinomial":
            per_class = [
                (values == k).astype(np.float64)
                for k in range(bound["n_classes"])
            ]
        else:
            per_class = [values.astype(np.float64)]
        columns = []
        for v in per_class:
            inside = member.positive_counts(v)
            # One row per region, then the remainder unit.
            columns.append(np.append(inside, v.sum() - inside.sum()))
        units = np.stack(columns, axis=-1)
        return units[:, None, :] if family == "multinomial" else units

    @pytest.mark.parametrize("design", ["grid", "squares", "circles"])
    @pytest.mark.parametrize(
        "family, direction",
        [(f, d) for f in ("bernoulli", "poisson") for d in (0, 1, -1)]
        + [("multinomial", 0)],
    )
    def test_observed_llr_is_a_one_world_batch(
        self, family, direction, design, unit_coords, biased_labels,
        biased_counts, biased_classes,
    ):
        from repro.core import FAMILIES as SCAN_FAMILIES

        outcomes = {
            "bernoulli": biased_labels,
            "poisson": biased_counts[0],
            "multinomial": biased_classes,
        }[family]
        scan = SCAN_FAMILIES[family]
        bound = scan.bind(
            unit_coords, outcomes, forecast=biased_counts[1], n_classes=3
        )
        member = RegionMembership(
            GOLDEN_DESIGNS[design].build(unit_coords), unit_coords
        )
        observed = scan.observed(bound, member, direction).llr
        kernel = scan.kernel(bound, direction).bind(member)
        world = self.one_world(family, bound, member)
        scored = kernel.llr(kernel.count(world))
        assert scored.shape == (len(member), 1)
        assert scored[:, 0].tobytes() == observed.tobytes()


class _PoolSpy(engine_mod.ThreadPoolExecutor):
    """Records the ``max_workers`` of every pool the engine starts."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        type(self).sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture()
def pool_spy(monkeypatch):
    monkeypatch.setattr(_PoolSpy, "sizes", [])
    monkeypatch.setattr(engine_mod, "ThreadPoolExecutor", _PoolSpy)
    return _PoolSpy


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class TestThreadPool:
    def test_oversized_request_is_clamped_to_usable_cores(
        self, pool_spy, unit_coords, unit_regions, biased_labels
    ):
        kernel = BernoulliKernel(len(unit_coords), int(biased_labels.sum()))
        serial = null_pass(unit_coords, unit_regions, kernel, 1)
        assert pool_spy.sizes == []
        huge = null_pass(unit_coords, unit_regions, kernel, 512)
        assert huge.tobytes() == serial.tobytes()
        assert all(n <= _usable_cores() for n in pool_spy.sizes)

    def test_pool_is_min_of_workers_chunks_and_cores(
        self, pool_spy, monkeypatch, unit_coords, unit_regions,
        biased_labels,
    ):
        kernel = BernoulliKernel(len(unit_coords), int(biased_labels.sum()))
        serial = null_pass(unit_coords, unit_regions, kernel, 1)
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: 3)
        # 48 worlds in chunks of 8: six chunks.
        for workers, expected in ((512, 3), (2, 2)):
            pool_spy.sizes.clear()
            out = null_pass(unit_coords, unit_regions, kernel, workers)
            assert pool_spy.sizes == [expected]
            assert out.tobytes() == serial.tobytes()
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: 64)
        pool_spy.sizes.clear()
        null_pass(unit_coords, unit_regions, kernel, 512)
        assert pool_spy.sizes == [6]

    def test_concurrent_sessions_match_serial(
        self, unit_coords, unit_regions, biased_labels, biased_counts,
        biased_classes, monkeypatch,
    ):
        """Two threads run workers=2 null passes on separate engines at
        the same time; neither may disturb the other's results."""
        # Each null_pass patches the chunk size and undoes its patch on
        # exit; two threads interleaving those steps can restore the
        # other's patch.  The test's own patch is undone last, so no
        # patched chunk size outlives the test.
        fixed_chunks(monkeypatch, 8)
        data = (unit_coords, biased_labels, biased_counts, biased_classes)
        families = ("bernoulli", "multinomial")
        serial = {
            family: null_pass(
                unit_coords, unit_regions, make_kernel(family, *data), 1
            )
            for family in families
        }
        barrier = threading.Barrier(len(families))
        results: dict = {}
        errors: list = []

        def run(family):
            try:
                barrier.wait()
                results[family] = [
                    null_pass(
                        unit_coords, unit_regions,
                        make_kernel(family, *data), 2,
                    )
                    for _ in range(3)
                ]
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(family,))
            for family in families
        ]
        # Frequent thread switches make a lost or crossed write likely
        # to surface as a mismatch against the serial run.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for family in families:
            for out in results[family]:
                assert np.array_equal(out, serial[family])


class TestGoldenSeedStability:
    """Each auditor at a fixed seed returns identical verdicts,
    critical values and top-region ids across runs and worker counts.
    Fresh auditor instances everywhere: nothing may lean on a cache."""

    def run_bernoulli(self, coords, labels, regions, workers):
        auditor = SpatialFairnessAuditor(coords, labels)
        return auditor.audit(
            regions, n_worlds=N_WORLDS, seed=17, workers=workers
        )

    def run_poisson(self, coords, counts, regions, workers):
        observed, forecast = counts
        auditor = PoissonSpatialAuditor(coords, observed, forecast)
        return auditor.audit(
            regions, n_worlds=N_WORLDS, seed=23, workers=workers
        )

    def run_multinomial(self, coords, classes, regions, workers):
        auditor = MultinomialSpatialAuditor(coords, classes, 3)
        return auditor.audit(
            regions, n_worlds=N_WORLDS, seed=29, workers=workers
        )

    def test_bernoulli_detects_and_repeats(self, unit_coords,
                                           biased_labels, unit_regions):
        a = self.run_bernoulli(unit_coords, biased_labels, unit_regions, 1)
        b = self.run_bernoulli(unit_coords, biased_labels, unit_regions, 1)
        assert not a.is_fair  # the injected bias is found
        assert a.significant_findings
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_bernoulli_workers_match_serial(self, unit_coords,
                                            biased_labels, unit_regions):
        a = self.run_bernoulli(unit_coords, biased_labels, unit_regions, 1)
        b = self.run_bernoulli(unit_coords, biased_labels, unit_regions, 2)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_poisson_detects_and_repeats(self, unit_coords,
                                         biased_counts, unit_regions):
        a = self.run_poisson(unit_coords, biased_counts, unit_regions, 1)
        b = self.run_poisson(unit_coords, biased_counts, unit_regions, 1)
        assert not a.is_fair
        assert a.significant_findings
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_poisson_workers_match_serial(self, unit_coords,
                                          biased_counts, unit_regions):
        a = self.run_poisson(unit_coords, biased_counts, unit_regions, 1)
        b = self.run_poisson(unit_coords, biased_counts, unit_regions, 2)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_multinomial_detects_and_repeats(self, unit_coords,
                                             biased_classes,
                                             unit_regions):
        a = self.run_multinomial(
            unit_coords, biased_classes, unit_regions, 1
        )
        b = self.run_multinomial(
            unit_coords, biased_classes, unit_regions, 1
        )
        assert not a.is_fair
        assert a.significant_findings
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_multinomial_workers_match_serial(self, unit_coords,
                                              biased_classes,
                                              unit_regions):
        a = self.run_multinomial(
            unit_coords, biased_classes, unit_regions, 1
        )
        b = self.run_multinomial(
            unit_coords, biased_classes, unit_regions, 2
        )
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_different_seeds_differ(self, unit_coords, biased_labels,
                                    unit_regions):
        # Sanity check that the fingerprint is actually sensitive.
        a = SpatialFairnessAuditor(unit_coords, biased_labels).audit(
            unit_regions, n_worlds=N_WORLDS, seed=17
        )
        b = SpatialFairnessAuditor(unit_coords, biased_labels).audit(
            unit_regions, n_worlds=N_WORLDS, seed=18
        )
        assert a.critical_value != b.critical_value


#: Golden scan designs over the unit datasets: the 5x5 unit grid and
#: eight k-means centres with two squares or two circles each.
GOLDEN_DESIGNS = {
    "grid": RegionSpec.grid(5, 5, bounds=(0, 0, 1, 1)),
    "squares": RegionSpec.squares(8, sides=(0.2, 0.35)),
    "circles": RegionSpec.circles(8, radii=(0.1, 0.2)),
}

#: A small first round, so the 49-world adaptive budget runs four
#: rounds ([8, 8, 16, 17]) instead of one.
GOLDEN_BUDGETS = {
    "fixed": "fixed",
    "adaptive": {"kind": "adaptive", "initial": 8},
}

GOLDEN_SEEDS = {"bernoulli": 17, "poisson": 23, "multinomial": 29}

#: (verdict, p_value, significant indices, worlds simulated,
#: critical_value) per (family, design, budget).  The grid rows draw
#: region-level worlds (the unit grid is disjoint on the unit points),
#: so their critical values follow that stream.
GOLDEN_NULL = {
    ('bernoulli', 'grid', 'fixed'): (
        'unfair', 0.02, (0,), 49, 4.75449825923,
    ),
    ('bernoulli', 'grid', 'adaptive'): (
        'unfair', 0.02, (0,), 49, 6.50242926762,
    ),
    ('bernoulli', 'squares', 'fixed'): (
        'unfair', 0.02, (8, 9), 49, 4.56972817483,
    ),
    ('bernoulli', 'squares', 'adaptive'): (
        'unfair', 0.02, (8, 9), 49, 4.32635622411,
    ),
    ('bernoulli', 'circles', 'fixed'): (
        'unfair', 0.02, (5, 8, 9), 49, 4.57172767604,
    ),
    ('bernoulli', 'circles', 'adaptive'): (
        'unfair', 0.02, (8, 9), 49, 4.96151083832,
    ),
    ('poisson', 'grid', 'fixed'): (
        'unfair', 0.02, (0, 1, 5, 6), 49, 4.36983713868,
    ),
    ('poisson', 'grid', 'adaptive'): (
        'unfair', 0.02, (0, 1, 5, 6), 49, 5.4396560745,
    ),
    ('poisson', 'squares', 'fixed'): (
        'unfair', 0.02, (8, 9), 49, 5.99355691305,
    ),
    ('poisson', 'squares', 'adaptive'): (
        'unfair', 0.02, (8, 9), 49, 4.9807707663,
    ),
    ('poisson', 'circles', 'fixed'): (
        'unfair', 0.02, (8, 9), 49, 5.2676711596,
    ),
    ('poisson', 'circles', 'adaptive'): (
        'unfair', 0.02, (8, 9, 11), 49, 4.36855744107,
    ),
    ('multinomial', 'grid', 'fixed'): (
        'unfair', 0.02, (0, 1, 5), 49, 6.42379271545,
    ),
    ('multinomial', 'grid', 'adaptive'): (
        'unfair', 0.02, (0, 1, 5), 49, 7.29976484361,
    ),
    ('multinomial', 'squares', 'fixed'): (
        'unfair', 0.02, (8, 9), 49, 6.8608234677,
    ),
    ('multinomial', 'squares', 'adaptive'): (
        'unfair', 0.02, (8, 9), 49, 5.42272587618,
    ),
    ('multinomial', 'circles', 'fixed'): (
        'unfair', 0.02, (8, 9), 49, 6.56384883241,
    ),
    ('multinomial', 'circles', 'adaptive'): (
        'unfair', 0.02, (8, 9), 49, 6.63857906506,
    ),
}
GOLDEN_LLR = {
    ('bernoulli', 'grid'): [
        17.2369507486, 2.61802056607, 0.926501742497, 0.326054746454,
        0.00465803530926, 3.98003997259, 3.99030009668, 0.88817957101,
        0.00243279158036, 0.674008551395, 0.409481969396,
        0.126057656799, 0.032327052986, 0.235184556822, 0.758065642553,
        0.571926608358, 0.0891702943239, 1.97590815814, 0.836281316613,
        1.2805719568, 0.49547783857, 1.72847074475, 0.251952112985,
        1.53879140216, 0.503501929772
    ],
    ('bernoulli', 'squares'): [
        0.251952112985, 0.433930395279, 0.00114196834568,
        0.00614708772082, 0.395839545722, 3.27378978911, 0.313683062006,
        0.403484527271, 9.41826280742, 32.6170892242, 0.333685111362,
        3.01545041725, 0.0665004515412, 0.219941574512, 0.170900831017,
        2.14328656346
    ],
    ('bernoulli', 'circles'): [
        0.17432204816, 0.517872102417, 0.00561829328063,
        0.000167638035009, 0.00855905405308, 4.95038847479,
        0.0851858177948, 0.290808682652, 11.9447920831, 31.5865466785,
        0.850045274714, 2.66827230637, 0.597267077598, 0.427423553316,
        0.483202199198, 1.0125581544
    ],
    ('poisson', 'grid'): [
        15.3367698292, 30.3747675523, 1.93023010431, 0.666921334546,
        1.6897569218, 10.1181865326, 5.96300739294, 0.0111809551588,
        0.725410143789, 2.30772756997, 0.659874549505, 0.765477693644,
        0.000940906362631, 0.0561211275132, 0.187068900472, 2.326384302,
        0.982405487918, 1.49257814201, 1.03965591866, 1.1620903192,
        1.90462748559, 0.708807220632, 0.138738779051,
        0.000200674048642, 0.26277117481
    ],
    ('poisson', 'squares'): [
        0.0916438464972, 0.690276666978, 0.524779396406, 3.39071173445,
        0.054730492493, 0.0208487211861, 0.488124154765,
        0.0214793748557, 22.5091437012, 74.3233557635, 0.720915103526,
        4.56125508131, 1.45375716337, 2.25068400208, 0.054376252494,
        0.571933984889
    ],
    ('poisson', 'circles'): [
        0.0415871440796, 0.71147209544, 0.743458983535, 3.35780605379,
        0.062625508464, 0.434192775898, 0.213988577473,
        0.00309717143396, 18.1207857664, 68.2518585251, 0.149730642605,
        5.04633441696, 0.676696668925, 2.37978067191, 0.0818441695476,
        0.964536910738
    ],
    ('multinomial', 'grid'): [
        13.7692271802, 9.03682670906, 0.463058425993, 0.861664814385,
        1.35320432881, 9.14215963146, 3.11009758007, 2.69854667583,
        1.60907147025, 1.03947001274, 0.260744890661, 0.0734731994497,
        0.65667652206, 4.00649141774, 5.75137818964, 2.24678911331,
        1.99323511502, 0.0128611759365, 1.00928851294, 3.63172501699,
        1.70567129665, 0.788449657046, 2.80061370723, 0.311282337044,
        1.70064677111
    ],
    ('multinomial', 'squares'): [
        0.739135336783, 0.403543091018, 0.317308558313, 0.496728485782,
        3.82450561503, 5.09518651936, 1.7388524043, 0.339175613881,
        15.4648006601, 37.6886897589, 0.668333909581, 1.03367568167,
        0.250004719864, 0.0721923609927, 4.78623120973, 4.82992596846
    ],
    ('multinomial', 'circles'): [
        0.59188831649, 0.775450408513, 0.333725256652, 0.333019318475,
        3.58096208194, 5.26720628432, 1.62251308934, 0.493086858864,
        12.0552214616, 36.4905037949, 1.11116714505, 2.00886311175,
        0.162128985311, 0.195406773058, 2.71470697849, 5.1835799943
    ],
}


class TestCrossVersionGolden:
    """Report values pinned as literals, so a change to the random
    stream, the chunk layout or a statistic shows up across commits
    (``result_fingerprint`` only compares runs within one commit).

    Verdicts, p-values and significant sets are exact; critical values
    and per-region LLRs match to 1e-9 relative, which absorbs numpy and
    libm rounding differences between Python versions."""

    @pytest.fixture(scope="class")
    def sessions(self, unit_coords, biased_labels, biased_counts,
                 biased_classes):
        observed, forecast = biased_counts
        return {
            "bernoulli": AuditSession(unit_coords, biased_labels),
            "poisson": AuditSession(
                unit_coords, observed, forecast=forecast
            ),
            "multinomial": AuditSession(
                unit_coords, biased_classes, n_classes=3
            ),
        }

    @pytest.mark.parametrize("key", sorted(GOLDEN_NULL))
    def test_report_matches_golden(self, sessions, key):
        family, design, budget = key
        result = sessions[family].run(
            AuditSpec(
                regions=GOLDEN_DESIGNS[design],
                family=family,
                n_worlds=N_WORLDS,
                seed=GOLDEN_SEEDS[family],
                budget=GOLDEN_BUDGETS[budget],
                workers=1,
            )
        ).result
        verdict, p_value, significant, worlds, critical = GOLDEN_NULL[key]
        assert ("fair" if result.is_fair else "unfair") == verdict
        assert result.p_value == p_value
        assert tuple(
            sorted(f.index for f in result.significant_findings)
        ) == significant
        assert result.n_worlds == worlds
        assert result.critical_value == pytest.approx(critical, rel=1e-9)
        # abs=1e-12 only admits regions whose LLR is exactly 0.
        assert [f.llr for f in result.findings] == pytest.approx(
            GOLDEN_LLR[family, design], rel=1e-9, abs=1e-12
        )


class TestSharedEngineCheck:
    """A legacy auditor sharing an engine still checks its own
    coordinates, and scores exactly as one with a private engine."""

    def test_nan_coords_rejected_with_engine(self, unit_coords,
                                             biased_classes):
        coords = unit_coords.copy()
        coords[3, 0] = np.nan
        with pytest.raises(ValueError, match="coords"):
            MultinomialSpatialAuditor(
                coords, biased_classes, 3, engine=MonteCarloEngine(),
            )

    def test_equal_copy_is_accepted(self, unit_coords, biased_labels,
                                    unit_regions):
        engine = MonteCarloEngine()
        shared = SpatialFairnessAuditor(
            unit_coords.copy(), biased_labels, engine=engine
        )
        own = SpatialFairnessAuditor(unit_coords, biased_labels)
        assert shared.engine is engine
        assert result_fingerprint(
            shared.audit(unit_regions, n_worlds=N_WORLDS, seed=3)
        ) == result_fingerprint(
            own.audit(unit_regions, n_worlds=N_WORLDS, seed=3)
        )
