"""Unit tests for :mod:`repro.engine`: chunk layout, caching, the
worker thread pool, and the engine's determinism contract through all
three auditors (the seed-stability golden tests)."""

import os
import sys
import threading

import numpy as np
import pytest

from tests.conftest import N_WORLDS
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


def null_pass(coords, regions, kernel, workers, seed=7):
    """A fixed-budget, multi-chunk null pass on a fresh engine (so the
    null cache cannot short-circuit a comparison)."""
    engine = MonteCarloEngine(coords)
    return engine.null_distribution(
        engine.membership(regions), kernel, 48, seed=seed,
        chunk_worlds=8, workers=workers,
    )


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

    def test_chunk_layout_ignores_worker_config(self):
        # The determinism contract depends on the layout never seeing
        # the worker count: engines configured for different pools must
        # produce the same chunk spans for the same workload.
        coords = np.zeros((10, 2))
        serial_engine = MonteCarloEngine(coords, workers=1)
        pooled_engine = MonteCarloEngine(coords, workers=8)
        for n_worlds in (5, 49, 199):
            assert serial_engine.chunk_layout(
                1000, n_worlds
            ) == pooled_engine.chunk_layout(1000, n_worlds)

    def test_layout_covers_budget_contiguously(self):
        for n_worlds in (1, 7, 48, 49, 199):
            layout = MonteCarloEngine.chunk_layout(1000, n_worlds)
            assert layout[0][0] == 0
            assert sum(w for _, w in layout) == n_worlds
            for (s0, w0), (s1, _) in zip(layout, layout[1:]):
                assert s1 == s0 + w0

    def test_layout_respects_override(self):
        layout = MonteCarloEngine.chunk_layout(1000, 20, chunk_worlds=6)
        assert [(s, w) for s, w in layout] == [
            (0, 6), (6, 6), (12, 6), (18, 2),
        ]


class TestKernelContract:
    def test_unbound_kernel_refuses_to_score(self):
        kernel = BernoulliKernel(100, 50)
        with pytest.raises(RuntimeError, match="bound"):
            kernel.score(np.zeros((100, 4), dtype=np.float32))

    def test_base_kernel_is_abstract(self):
        kernel = LLRKernel()
        with pytest.raises(NotImplementedError):
            kernel.cache_key()
        with pytest.raises(NotImplementedError):
            kernel.chunk_points

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


class TestNullCache:
    def test_repeat_design_hits_cache(self, unit_coords, unit_regions,
                                      biased_labels):
        engine = MonteCarloEngine(unit_coords)
        member = engine.membership(unit_regions)
        P = int(biased_labels.sum())
        first = engine.null_distribution(
            member, BernoulliKernel(len(unit_coords), P), N_WORLDS, seed=5
        )
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        second = engine.null_distribution(
            member, BernoulliKernel(len(unit_coords), P), N_WORLDS, seed=5
        )
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        assert np.array_equal(first, second)

    def test_cached_array_is_a_private_copy(self, unit_coords,
                                            unit_regions, biased_labels):
        engine = MonteCarloEngine(unit_coords)
        member = engine.membership(unit_regions)
        P = int(biased_labels.sum())
        kernel = BernoulliKernel(len(unit_coords), P)
        first = engine.null_distribution(member, kernel, N_WORLDS, seed=5)
        first[:] = -1.0  # caller mutates its copy
        second = engine.null_distribution(member, kernel, N_WORLDS, seed=5)
        assert (second >= 0.0).all()

    def test_unseeded_runs_are_never_cached(self, unit_coords,
                                            unit_regions):
        engine = MonteCarloEngine(unit_coords)
        member = engine.membership(unit_regions)
        kernel = BernoulliKernel(len(unit_coords), 300)
        engine.null_distribution(member, kernel, N_WORLDS, seed=None)
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)

    def test_cache_evicts_least_recent(self, unit_coords, unit_regions):
        engine = MonteCarloEngine(unit_coords, cache_size=2)
        member = engine.membership(unit_regions)
        for seed in (1, 2, 3):
            engine.null_distribution(
                member, BernoulliKernel(len(unit_coords), 300),
                N_WORLDS, seed=seed,
            )
        # Seed 1 was evicted, seeds 2 and 3 remain.
        engine.null_distribution(
            member, BernoulliKernel(len(unit_coords), 300),
            N_WORLDS, seed=1,
        )
        assert engine.cache_misses == 4
        engine.null_distribution(
            member, BernoulliKernel(len(unit_coords), 300),
            N_WORLDS, seed=3,
        )
        assert engine.cache_hits == 1

    def test_membership_is_cached_per_region_set(self, unit_coords,
                                                 unit_regions):
        engine = MonteCarloEngine(unit_coords)
        assert engine.membership(unit_regions) is engine.membership(
            unit_regions
        )


class TestWorkersBitIdentical:
    """The engine's core promise: the null distribution is the same
    array no matter how many threads simulated it."""

    @pytest.mark.parametrize("family", ["bernoulli", "poisson",
                                        "multinomial"])
    def test_parallel_equals_serial(self, family, unit_coords,
                                    unit_regions, biased_labels,
                                    biased_counts, biased_classes):
        data = (unit_coords, biased_labels, biased_counts, biased_classes)
        serial = null_pass(
            unit_coords, unit_regions, make_kernel(family, *data), 1
        )
        parallel = null_pass(
            unit_coords, unit_regions, make_kernel(family, *data), 2
        )
        assert np.array_equal(serial, parallel)


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
        biased_classes,
    ):
        """Two threads run workers=2 null passes on separate engines at
        the same time; neither may disturb the other's results."""
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
