"""Streaming/incremental audits: the equivalence suite.

The incremental path is only trustworthy if it is *provably* the cold
path: every test here pins ``incremental == full rebuild`` bit for bit
— reports (full JSON payloads), membership matrices (raw arrays),
and null distributions — across all three outcome families, plus the
cache-survival and counter semantics the streaming layer promises.

The whole module carries the ``stream`` marker so CI can run it as its
own job (``pytest -m stream``).
"""

import json
import threading
import time

import numpy as np
import pytest

import repro.api
import repro.fingerprint
from repro.api import AuditSession
from repro.core import MEASURES, MeasureDef, register_measure
from repro.engine import BernoulliKernel, MonteCarloEngine, PoissonKernel
from repro.fingerprint import array_fingerprint, combine_fingerprints
from repro.geometry import (
    GridPartitioning,
    Rect,
    circle_region_set,
    partition_region_set,
    square_region_set,
)
from repro.index import RegionMembership
from repro.serve import AuditService
from repro.spec import AuditSpec, RegionSpec

from tests.conftest import N_WORLDS

pytestmark = pytest.mark.stream

GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))
GRID_AUTO = RegionSpec.grid(4, 4)  # bounds from the data's bbox
SQUARES = RegionSpec.squares(4, sides=(0.15, 0.3), centers_seed=7)
CIRCLES = RegionSpec.circles(4, radii=(0.1, 0.2), centers_seed=7)


def report_json(report) -> str:
    """A report's full payload as canonical JSON — byte equality."""
    return json.dumps(report.to_dict(full=True), sort_keys=True)


def matrix_equal(a, b) -> bool:
    """Byte equality of two memberships' matrices: raw arrays and
    their dtypes."""
    ma, mb = a._matrix, b._matrix
    return ma.shape == mb.shape and all(
        getattr(ma, f).dtype == getattr(mb, f).dtype
        and getattr(ma, f).tobytes() == getattr(mb, f).tobytes()
        for f in ("indptr", "indices", "data")
    )


@pytest.fixture(scope="module")
def unit_y_true(unit_coords):
    rng = np.random.default_rng(104)
    return (rng.random(len(unit_coords)) < 0.5).astype(np.int8)


def _family_case(family, biased_labels, biased_counts, biased_classes):
    """(session kwargs, spec kwargs) for one outcome family."""
    if family == "bernoulli":
        return {"outcomes": biased_labels}, {}
    if family == "poisson":
        observed, forecast = biased_counts
        return (
            {"outcomes": observed, "forecast": forecast},
            {"family": "poisson"},
        )
    return {"outcomes": biased_classes}, {"family": "multinomial"}


def _sliced(arrays: dict, selector) -> dict:
    return {
        key: (None if value is None else value[selector])
        for key, value in arrays.items()
    }


class TestSessionEquivalence:
    """append/evict == cold rebuild, bit for bit, for every family."""

    @pytest.mark.parametrize(
        "family", ["bernoulli", "poisson", "multinomial"]
    )
    def test_streamed_equals_cold(
        self,
        family,
        unit_coords,
        biased_labels,
        biased_counts,
        biased_classes,
    ):
        arrays, spec_kw = _family_case(
            family, biased_labels, biased_counts, biased_classes
        )
        ts = np.arange(len(unit_coords), dtype=np.float64)
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=11, **spec_kw),
            AuditSpec(
                regions=SQUARES, n_worlds=N_WORLDS, seed=11, **spec_kw
            ),
        ]

        streamed = AuditSession(
            unit_coords[:400],
            timestamps=ts[:400],
            **_sliced(arrays, slice(None, 400)),
        )
        for spec in specs:  # warm every cache before the stream moves
            streamed.run(spec)
        streamed.append(
            unit_coords[400:],
            timestamps=ts[400:],
            **_sliced(arrays, slice(400, None)),
        )
        streamed.evict(older_than=100.0)
        got = [streamed.run(spec) for spec in specs]

        keep = ts >= 100.0
        cold = AuditSession(
            unit_coords[keep],
            timestamps=ts[keep],
            **_sliced(arrays, keep),
        )
        want = [cold.run(spec) for spec in specs]

        # 1. reports: full payloads, byte for byte
        assert [report_json(g) for g in got] == [
            report_json(w) for w in want
        ]
        for spec in specs:
            rs, rc = streamed.resolve(spec), cold.resolve(spec)
            # 2. membership matrices: raw arrays
            assert matrix_equal(rs.member, rc.member)
            assert np.array_equal(rs.member.counts, rc.member.counts)
            # 3. null distributions
            ns = rs.engine.null_distribution_multi(
                [rs.member], rs.kernel, N_WORLDS, seed=11
            )[0]
            nc = rc.engine.null_distribution_multi(
                [rc.member], rc.kernel, N_WORLDS, seed=11
            )[0]
            assert np.array_equal(ns, nc)

    @pytest.mark.parametrize(
        "family", ["bernoulli", "poisson", "multinomial"]
    )
    def test_edge_point_switches_the_grid_pass_and_back(
        self,
        family,
        unit_coords,
        biased_labels,
        biased_counts,
        biased_classes,
    ):
        # A point on the edge two grid cells share makes the grid
        # overlap (points pass); evicting it makes it disjoint again
        # (region-level pass).  Both states must match a cold session.
        arrays, spec_kw = _family_case(
            family, biased_labels, biased_counts, biased_classes
        )
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=9, **spec_kw)
        cell = GRID.build(unit_coords)[0].rect
        edge = np.array([[cell.max_x, (cell.min_y + cell.max_y) / 2]])
        grown = {
            key: np.concatenate([value, value[:1]])
            for key, value in arrays.items()
        }
        streamed = AuditSession(unit_coords, **arrays)
        before = report_json(streamed.run(spec))
        assert streamed.resolve(spec).member.disjoint
        streamed.append(edge, **_sliced(grown, slice(-1, None)))
        assert not streamed.resolve(spec).member.disjoint
        cold = AuditSession(np.vstack([unit_coords, edge]), **grown)
        assert not cold.resolve(spec).member.disjoint
        assert report_json(streamed.run(spec)) == report_json(
            cold.run(spec)
        )
        mask = np.zeros(len(unit_coords) + 1, dtype=bool)
        mask[-1] = True
        streamed.evict(mask)
        assert streamed.resolve(spec).member.disjoint
        after = report_json(streamed.run(spec))
        assert after == before
        assert after == report_json(
            AuditSession(unit_coords, **arrays).run(spec)
        )

    def test_two_batches_equal_one_batch(
        self, unit_coords, biased_labels
    ):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        twice = AuditSession(unit_coords[:400], biased_labels[:400])
        twice.run(spec)
        twice.append(unit_coords[400:500], biased_labels[400:500])
        twice.append(unit_coords[500:], biased_labels[500:])
        once = AuditSession(unit_coords[:400], biased_labels[:400])
        once.run(spec)
        once.append(unit_coords[400:], biased_labels[400:])
        cold = AuditSession(unit_coords, biased_labels)

        reports = [s.run(spec) for s in (twice, once, cold)]
        payloads = {report_json(r) for r in reports}
        assert len(payloads) == 1
        # Equal content -> equal dataset fingerprint.
        assert (
            twice.dataset_fingerprint() == once.dataset_fingerprint()
        )

    def test_evict_by_mask_equals_cold(self, unit_coords, biased_labels):
        spec = AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=2)
        session = AuditSession(unit_coords, biased_labels)
        session.run(spec)
        drop = np.zeros(len(unit_coords), dtype=bool)
        drop[::4] = True
        assert session.evict(drop) == int(drop.sum())
        cold = AuditSession(unit_coords[~drop], biased_labels[~drop])
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_window_slide_equals_cold(self, unit_coords, biased_labels):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=3)
        session = AuditSession(
            unit_coords[:500], biased_labels[:500], timestamps=ts[:500]
        )
        session.run(spec)
        session.append(
            unit_coords[500:], biased_labels[500:], timestamps=ts[500:]
        )
        # keep the trailing 400 time units: newest is 599 -> ts >= 199
        evicted = session.evict(window=400.0)
        assert evicted == 199
        keep = ts >= 199.0
        cold = AuditSession(
            unit_coords[keep], biased_labels[keep], timestamps=ts[keep]
        )
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_empty_append_is_a_noop(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        fp = session.dataset_fingerprint()
        assert (
            session.append(np.empty((0, 2)), np.empty(0, dtype=np.int8))
            == 0
        )
        assert session.dataset_fingerprint() == fp

    def test_evict_nothing_is_a_noop(self, unit_coords, biased_labels):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        session = AuditSession(unit_coords, biased_labels)
        before = report_json(session.run(spec))
        builds = (session.index_builds, session.incremental_builds)
        assert session.evict(np.zeros(len(unit_coords), dtype=bool)) == 0
        assert report_json(session.run(spec)) == before
        assert (session.index_builds, session.incremental_builds) == builds


class TestCacheSurvival:
    """Indexes survive exactly the untouched slices."""

    def test_one_update_per_live_membership(
        self, unit_coords, biased_labels, unit_y_true
    ):
        grid3 = RegionSpec.grid(3, 3, bounds=(0.0, 0.0, 1.0, 1.0))
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5),
            AuditSpec(regions=grid3, n_worlds=N_WORLDS, seed=5),
            AuditSpec(
                regions=GRID, n_worlds=N_WORLDS, seed=5,
                measure="equal_opportunity",
            ),
        ]
        session = AuditSession(
            unit_coords[:500], biased_labels[:500], y_true=unit_y_true[:500]
        )
        resolved = [session.resolve(spec) for spec in specs]
        # Two measures, one engine.
        assert all(r.engine is session._engine for r in resolved)
        assert session.index_builds == 3
        # Both slices gain points: all three memberships update once.
        assert unit_y_true[500:550].any()
        session.append(
            unit_coords[500:550], biased_labels[500:550],
            y_true=unit_y_true[500:550],
        )
        assert session.incremental_builds == 3
        # Only the whole-data slice gains points: two updates.
        y_tail = np.zeros(50, dtype=np.int8)
        session.append(
            unit_coords[550:], biased_labels[550:], y_true=y_tail
        )
        assert session.incremental_builds == 5
        # A prefix eviction that both slices lose points to.
        assert unit_y_true[:10].any()
        session.evict(np.arange(len(unit_coords)) < 10)
        assert session.incremental_builds == 8
        assert session.index_builds == 3
        assert [session.resolve(spec).member for spec in specs] == [
            r.member for r in resolved
        ]
        cold = AuditSession(
            unit_coords[10:], biased_labels[10:],
            y_true=np.concatenate([unit_y_true[10:550], y_tail]),
        )
        for spec in specs:
            assert report_json(session.run(spec)) == report_json(
                cold.run(spec)
            )

    def test_untouched_measure_keeps_nulls(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=5,
            measure="equal_opportunity",
        )
        session = AuditSession(
            unit_coords[:500],
            biased_labels[:500],
            y_true=unit_y_true[:500],
        )
        before = report_json(session.run(spec))
        builds = (session.index_builds, session.incremental_builds)
        # Every arrival has y_true == 0: the equal-opportunity slice
        # (y_true == 1) is untouched, so its engine and index survive
        # without an update.
        session.append(
            unit_coords[500:],
            biased_labels[500:],
            y_true=np.zeros(100, dtype=np.int8),
        )
        report = session.run(spec)
        assert (session.index_builds, session.incremental_builds) == builds
        assert report_json(report) == before
        # ... and the served report still matches a cold rebuild.
        cold = AuditSession(
            unit_coords,
            biased_labels,
            y_true=np.concatenate(
                [unit_y_true[:500], np.zeros(100, dtype=np.int8)]
            ),
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_touched_measure_resimulates(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=5)
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        session.run(spec)
        worlds = session.worlds_simulated
        session.append(unit_coords[500:], biased_labels[500:])
        session.run(spec)
        # statistical parity sees every point: nulls re-simulated.
        assert session.worlds_simulated == worlds + N_WORLDS

    def test_interior_growth_keeps_auto_grid(self):
        rng = np.random.default_rng(42)
        coords = 0.1 + 0.8 * rng.random((400, 2))
        # Pin the bounding box with corner points in the initial data,
        # so interior arrivals provably cannot move it.
        coords[0] = (0.1, 0.1)
        coords[1] = (0.9, 0.9)
        labels = (rng.random(400) < 0.4).astype(np.int8)
        spec = AuditSpec(regions=GRID_AUTO, n_worlds=N_WORLDS, seed=9)
        session = AuditSession(coords[:300], labels[:300])
        session.run(spec)
        assert session.index_builds == 1
        # Interior arrivals leave the bounding box untouched: the
        # data-driven grid survives and its index extends in place.
        session.append(coords[300:], labels[300:])
        session.run(spec)
        assert session.index_builds == 1
        assert session.incremental_builds == 1
        cold = AuditSession(coords, labels)
        assert report_json(session.run(spec)) == report_json(
            cold.run(spec)
        )

    def test_bbox_growth_rebuilds_auto_grid(self):
        rng = np.random.default_rng(43)
        coords = 0.1 + 0.8 * rng.random((400, 2))
        labels = (rng.random(400) < 0.4).astype(np.int8)
        spec = AuditSpec(regions=GRID_AUTO, n_worlds=N_WORLDS, seed=9)
        session = AuditSession(coords, labels)
        session.run(spec)
        assert session.index_builds == 1
        outside = np.array([[0.99, 0.99]])
        session.append(outside, np.array([1], dtype=np.int8))
        report = session.run(spec)
        # The bounding box moved: the grid was retired and rebuilt.
        assert session.index_builds == 2
        cold = AuditSession(
            np.concatenate([coords, outside]),
            np.concatenate([labels, np.array([1], dtype=np.int8)]),
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_counters_never_go_backwards(
        self, unit_coords, biased_labels
    ):
        spec = AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=4)
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        session.run(spec)
        builds, worlds = session.index_builds, session.worlds_simulated
        # Appending retires the k-means design (its centres depend on
        # the measured coords); the retired engine state must still be
        # counted.
        session.append(unit_coords[500:], biased_labels[500:])
        assert session.index_builds >= builds
        assert session.worlds_simulated >= worlds
        session.run(spec)
        assert session.index_builds == builds + 1  # rebuilt once

    def test_emptied_measure_slice_raises_cold_error(
        self, unit_coords, biased_labels, unit_y_true
    ):
        spec = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=5,
            measure="equal_opportunity",
        )
        session = AuditSession(
            unit_coords, biased_labels, y_true=unit_y_true
        )
        session.run(spec)
        session.evict(unit_y_true == 1)  # drop the whole measured slice
        with pytest.raises(ValueError, match="no observations"):
            session.run(spec)


class TestStreamValidation:
    def test_evict_needs_exactly_one_selector(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="exactly one"):
            session.evict()
        with pytest.raises(ValueError, match="exactly one"):
            session.evict(
                np.zeros(len(unit_coords), dtype=bool), window=1.0
            )

    def test_time_selectors_need_timestamps(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="timestamps"):
            session.evict(window=10.0)
        with pytest.raises(ValueError, match="timestamps"):
            session.evict(older_than=10.0)

    def test_bad_evict_mask(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="boolean mask"):
            session.evict(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="boolean mask"):
            session.evict(np.zeros(len(unit_coords), dtype=np.int8))

    def test_negative_window(self, unit_coords, biased_labels):
        session = AuditSession(
            unit_coords,
            biased_labels,
            timestamps=np.arange(len(unit_coords), dtype=float),
        )
        with pytest.raises(ValueError, match="non-negative"):
            session.evict(window=-1.0)

    def test_append_aux_consistency(
        self, unit_coords, biased_labels, unit_y_true
    ):
        plain = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="mid-flight"):
            plain.append(
                unit_coords[:5], biased_labels[:5], y_true=unit_y_true[:5]
            )
        with_y = AuditSession(
            unit_coords, biased_labels, y_true=unit_y_true
        )
        with pytest.raises(ValueError, match="must supply"):
            with_y.append(unit_coords[:5], biased_labels[:5])

    def test_append_shape_errors(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            session.append(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="length does not match"):
            session.append(unit_coords[:5], biased_labels[:4])

    def test_timestamps_length_checked_at_construction(
        self, unit_coords, biased_labels
    ):
        with pytest.raises(ValueError, match="timestamps"):
            AuditSession(
                unit_coords, biased_labels, timestamps=np.arange(3.0)
            )

    def test_engine_validation(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=1)
        member = session.resolve(spec).member
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            session.append(np.zeros(4), biased_labels[:4])
        with pytest.raises(ValueError, match="boolean mask"):
            session.evict(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="boolean mask"):
            member.evict_points(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="coords: expected finite"):
            session.append(np.full((4, 2), np.nan), biased_labels[:4])
        # Every refusal left the session and its membership untouched.
        assert len(session.coords) == len(unit_coords)
        assert session.resolve(spec).member is member
        assert member.n_points == len(unit_coords)
        with pytest.raises(ValueError, match="coords: expected finite"):
            AuditSession(np.full((4, 2), np.inf), biased_labels[:4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_append_rejects_non_finite_coords(
        self, unit_coords, biased_labels, bad
    ):
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        delta = unit_coords[500:505].copy()
        delta[2, 0] = bad
        with pytest.raises(ValueError, match="coords: expected finite"):
            session.append(delta, biased_labels[500:505])
        # The rejected batch left the session untouched.
        assert len(session.coords) == 500
        assert len(session.outcomes) == 500


class TestIncrementalIndex:
    """RegionMembership column updates == cold builds."""

    def test_membership_append_matches_cold(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords[:500])
        delta = member.append_points(unit_coords[500:])
        assert delta.n_points == 100
        cold = RegionMembership(unit_regions, unit_coords)
        assert matrix_equal(member, cold)
        assert np.array_equal(member.counts, cold.counts)
        assert member.n_points == cold.n_points

    def test_membership_evict_matches_cold(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords)
        keep = np.ones(len(unit_coords), dtype=bool)
        keep[::3] = False
        member.evict_points(keep)
        cold = RegionMembership(unit_regions, unit_coords[keep])
        assert matrix_equal(member, cold)
        assert np.array_equal(member.counts, cold.counts)

    def test_membership_evict_mask_checked(
        self, unit_coords, unit_regions
    ):
        member = RegionMembership(unit_regions, unit_coords)
        with pytest.raises(ValueError, match="boolean mask"):
            member.evict_points(np.ones(10, dtype=bool))
        with pytest.raises(ValueError, match="boolean mask"):
            member.evict_points(np.ones(len(unit_coords)))


def _scattered_case(kind, n, stamp_seed=31):
    """``(timestamps, evict kwargs, keep)`` of an eviction that is not
    a prefix of the points: an explicit scattered mask, or a time
    window over out-of-order timestamps."""
    rng = np.random.default_rng(stamp_seed)
    if kind == "mask":
        ts = np.arange(n, dtype=np.float64)
        keep = rng.random(n) < 0.65
        return ts, {"mask": ~keep}, keep
    ts = rng.permutation(n).astype(np.float64)
    keep = ts >= ts.max() - 399.0
    return ts, {"window": 399.0}, keep


class TestNonPrefixEvictions:
    """Streamed == cold when an eviction drops points from anywhere in
    the arrays, so the index keeps columns through its general gather
    rather than a prefix slice: grids, fixed-centre squares and
    circles, and a Poisson squares scan, whose expected counts are
    non-integer sums through the rings."""

    CENTERS = np.random.default_rng(7).random((5, 2))

    def _regions(self, design):
        if design == "grid":
            return partition_region_set(
                GridPartitioning.regular(Rect(0, 0, 1, 1), 5, 5)
            )
        if design == "circles":
            return circle_region_set(self.CENTERS, [0.25, 0.1, 0.15])
        return square_region_set(self.CENTERS, [0.3, 0.1, 0.2])

    def _kernel(self, design, outcomes, forecast):
        if design == "poisson-squares":
            total = float(outcomes.sum())
            return PoissonKernel(forecast * (total / forecast.sum()), total)
        return BernoulliKernel(len(outcomes), float(outcomes.sum()))

    @pytest.mark.parametrize("kind", ["mask", "out-of-order window"])
    @pytest.mark.parametrize(
        "design", ["grid", "squares", "circles", "poisson-squares"]
    )
    def test_engine_streamed_equals_cold(
        self, design, kind, unit_coords, biased_labels, biased_counts
    ):
        n = len(unit_coords)
        observed, forecast = biased_counts
        outcomes = observed if design == "poisson-squares" else biased_labels
        regions = self._regions(design)
        ts, _, keep = _scattered_case(kind, n)
        drop = np.flatnonzero(~keep)
        assert drop.max() > np.flatnonzero(keep).min()  # not a prefix
        ms = RegionMembership(regions, unit_coords[:450])
        ms.append_points(unit_coords[450:])
        ms.evict_points(keep)
        mc = RegionMembership(regions, unit_coords[keep])
        assert matrix_equal(ms, mc)
        assert ms.counts.tobytes() == mc.counts.tobytes()
        assert ms.disjoint == mc.disjoint
        ks = self._kernel(design, outcomes[keep], forecast[keep])
        kc = self._kernel(design, outcomes[keep], forecast[keep])
        ns, nc = (
            MonteCarloEngine().null_distribution_multi(
                [m], k, N_WORLDS, seed=11
            )[0]
            for m, k in ((ms, ks), (mc, kc))
        )
        assert ns.tobytes() == nc.tobytes()
        if design == "poisson-squares":
            exp_s = ms.positive_counts(forecast[keep])
            assert exp_s.tobytes() == mc.positive_counts(
                forecast[keep]
            ).tobytes()

    @pytest.mark.parametrize("kind", ["mask", "out-of-order window"])
    @pytest.mark.parametrize(
        "design, family",
        [
            (GRID, "bernoulli"),
            (SQUARES, "bernoulli"),
            (CIRCLES, "bernoulli"),
            (SQUARES, "poisson"),
        ],
    )
    def test_session_streamed_equals_cold(
        self, design, family, kind, unit_coords, biased_labels,
        biased_counts,
    ):
        n = len(unit_coords)
        observed, forecast = biased_counts
        if family == "poisson":
            arrays = {"outcomes": observed, "forecast": forecast}
        else:
            arrays = {"outcomes": biased_labels}
        ts, evict, keep = _scattered_case(kind, n)
        spec = AuditSpec(
            regions=design, family=family, n_worlds=N_WORLDS, seed=13
        )
        streamed = AuditSession(
            unit_coords[:450],
            timestamps=ts[:450],
            **_sliced(arrays, slice(None, 450)),
        )
        streamed.run(spec)
        streamed.append(
            unit_coords[450:],
            timestamps=ts[450:],
            **_sliced(arrays, slice(450, None)),
        )
        if "mask" in evict:
            streamed.evict(evict["mask"])
        else:
            streamed.evict(window=evict["window"])
        cold = AuditSession(
            unit_coords[keep], timestamps=ts[keep], **_sliced(arrays, keep)
        )
        assert report_json(streamed.run(spec)) == report_json(cold.run(spec))
        rs, rc = streamed.resolve(spec), cold.resolve(spec)
        assert matrix_equal(rs.member, rc.member)
        assert rs.member.counts.tobytes() == rc.member.counts.tobytes()


def _in_order(ts) -> bool:
    """The test's own oracle of the session's in-order flag."""
    return bool(np.all(np.diff(ts) >= 0)) and not np.isnan(ts).any()


#: The watched specs of :class:`TestPrefixViews`: a grid and a k-means
#: scan over every point, and a measure over a row subset.
PREFIX_SPECS = [
    AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=17),
    AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=17),
    AuditSpec(
        regions=GRID, measure="equal_opportunity", n_worlds=N_WORLDS,
        seed=17,
    ),
]


class TestPrefixViews:
    """A window slide over in-order timestamps drops a prefix, so the
    next state's arrays are views into the previous state's; every
    other eviction gathers.  Both stay byte-identical to cold."""

    @pytest.fixture()
    def arrays(self, unit_coords, biased_labels, unit_y_true):
        return {
            "coords": unit_coords,
            "outcomes": biased_labels,
            "y_true": unit_y_true,
            "forecast": np.linspace(1.0, 2.0, len(unit_coords)),
        }

    def _session(self, arrays, ts, stop):
        session = AuditSession(
            timestamps=ts[:stop], **_sliced(arrays, slice(None, stop))
        )
        for spec in PREFIX_SPECS:  # warm every cache
            session.run(spec)
        return session

    def _assert_cold(self, session, arrays, ts, keep):
        cold = AuditSession(
            timestamps=ts[keep], **_sliced(arrays, keep)
        )
        for spec in PREFIX_SPECS:
            assert report_json(session.run(spec)) == report_json(
                cold.run(spec)
            )

    def test_window_slide_takes_read_only_views(self, arrays):
        n = len(arrays["coords"])
        ts = np.arange(n, dtype=np.float64)
        session = self._session(arrays, ts, 500)
        session.append(
            timestamps=ts[500:], **_sliced(arrays, slice(500, None))
        )
        assert session._state.in_order
        names = ("coords", "outcomes", "y_true", "forecast", "timestamps")
        before = {name: getattr(session, name) for name in names}
        designs = dict(session._designs)
        assert {measure for _, measure in designs} == {
            "statistical_parity", "equal_opportunity"
        }
        assert session.evict(window=449.0) == 150
        for name in names:
            after = getattr(session, name)
            assert np.shares_memory(after, before[name]), name
            assert not after.flags.writeable, name
        # Every membership survives, updated in place, and the
        # whole-data measure builds from the state's own view.
        assert session._designs == designs
        assert session._state.measured("statistical_parity")[0] is (
            session.coords
        )
        self._assert_cold(session, arrays, ts, ts >= 150.0)

    @pytest.mark.parametrize(
        "case",
        [
            "out-of-order stamps",
            "nan stamp",
            "nan stamp, window",
            "batch behind the cutoff",
            "prefix mask",
            "evict none",
        ],
    )
    def test_eviction_equals_cold(self, case, arrays):
        n = len(arrays["coords"])
        ts = np.arange(n, dtype=np.float64)
        if case == "out-of-order stamps":
            ts = np.random.default_rng(5).permutation(ts)
        elif case.startswith("nan stamp"):
            ts[420] = np.nan
        elif case == "batch behind the cutoff":
            ts[450:] = np.arange(n - 450, dtype=np.float64)
        session = self._session(arrays, ts, 450)
        session.append(
            timestamps=ts[450:], **_sliced(arrays, slice(450, None))
        )
        if case == "prefix mask":
            keep = np.arange(n) >= 120
            drop = ~keep
            before = session.coords
            assert session.evict(drop) == 120
            assert np.shares_memory(session.coords, before)
        elif case == "nan stamp":
            keep = ts >= 200.0
            assert session.evict(older_than=200.0) == n - keep.sum()
        elif case == "nan stamp, window":
            # The NaN stamp is evicted; the newest real stamp sets the
            # cutoff.
            keep = ts >= np.nanmax(ts) - 300.0
            assert session.evict(window=300.0) == n - keep.sum()
        elif case == "evict none":
            keep = np.ones(n, dtype=bool)
            before = session._state
            assert session.evict(window=1e9) == 0
            assert session._state is before
        else:
            keep = ts >= np.max(ts) - 300.0
            assert session.evict(window=300.0) == n - keep.sum()
            assert not np.shares_memory(session.coords, arrays["coords"])
        assert session._state.in_order == _in_order(session.timestamps)
        self._assert_cold(session, arrays, ts, keep)

    def test_evict_all_then_refill_equals_cold(self, arrays):
        n = len(arrays["coords"])
        ts = np.arange(n, dtype=np.float64)
        session = self._session(arrays, ts, 450)
        assert session.evict(older_than=np.inf) == 450
        assert len(session.coords) == 0
        assert session._state.in_order
        with pytest.raises(ValueError) as streamed:
            session.run(PREFIX_SPECS[0])
        empty = AuditSession(
            timestamps=ts[:0], **_sliced(arrays, slice(0, 0))
        )
        with pytest.raises(ValueError) as cold:
            empty.run(PREFIX_SPECS[0])
        assert str(streamed.value) == str(cold.value)
        session.append(
            timestamps=ts[450:], **_sliced(arrays, slice(450, None))
        )
        assert session._state.in_order
        self._assert_cold(session, arrays, ts, np.arange(n) >= 450)

    def test_in_order_flag_follows_every_event(self, arrays):
        n = len(arrays["coords"])
        ts = np.arange(n, dtype=np.float64)
        ts[300] = -1.0  # out of order until it is evicted
        session = self._session(arrays, ts, 200)

        def check():
            assert session._state.in_order == _in_order(session.timestamps)

        check()
        steps = [
            ("append", slice(200, 250)),  # in order, after the newest
            ("window", 220.0),  # prefix evict
            ("append", slice(250, 320)),  # holds the -1 stamp
            ("window", 40.0),  # mask path; drops the -1
            ("append", slice(320, 330)),
            ("mask", None),  # scattered mask over in-order stamps
            ("append", slice(330, 340)),
        ]
        for op, arg in steps:
            if op == "append":
                session.append(
                    timestamps=ts[arg], **_sliced(arrays, arg)
                )
            elif op == "window":
                session.evict(window=arg)
            else:
                drop = np.zeros(len(session.coords), dtype=bool)
                drop[1::3] = True
                session.evict(drop)
            check()
        # A batch that starts before the newest stamp breaks the order.
        back = session.timestamps[-1] - 0.5
        session.append(
            arrays["coords"][:2], arrays["outcomes"][:2],
            y_true=arrays["y_true"][:2], forecast=arrays["forecast"][:2],
            timestamps=[back, back + 1.0],
        )
        assert not session._state.in_order
        check()
        # NaN breaks it too.
        session.evict(np.ones(len(session.coords), dtype=bool))
        session.append(
            arrays["coords"][:2], arrays["outcomes"][:2],
            y_true=arrays["y_true"][:2], forecast=arrays["forecast"][:2],
            timestamps=[np.nan, 1.0],
        )
        assert not session._state.in_order
        check()

    def test_searchsorted_cursor_matches_the_mask(self):
        # Cutoffs at, between and beyond the stamps, ties included.
        ts = np.array([-np.inf, 0.0, 0.0, 1.5, 2.0, 2.0, np.inf])
        session = AuditSession(
            np.zeros((len(ts), 2)), np.zeros(len(ts), dtype=np.int8),
            timestamps=ts,
        )
        assert session._state.in_order
        for cutoff in (-np.inf, -1.0, 0.0, -0.0, 1.0, 2.0, 3.0, np.inf):
            keep = session._evict_keep(None, cutoff, None)
            assert keep == len(ts) - np.count_nonzero(ts >= cutoff)
        assert session._evict_keep(None, np.nan, None) == len(ts)


class TestIndexBuildCounter:
    """Satellite fix: index_builds is exhaustive on every build path."""

    def test_fused_stacking_counts_as_build(
        self, unit_coords, biased_labels
    ):
        # Two scan designs: they overlap, so they share one stacked
        # points pass.
        session = AuditSession(unit_coords, biased_labels)
        service = AuditService(session)
        specs = [
            AuditSpec(regions=SQUARES, n_worlds=N_WORLDS, seed=6),
            AuditSpec(regions=CIRCLES, n_worlds=N_WORLDS, seed=6),
        ]
        service.run_batch(specs)
        # Two member indexes plus one fused stacking over them.
        assert session.index_builds == 3
        # Repeat: answered from the report cache, zero new builds.
        service.run_batch(specs)
        assert session.index_builds == 3
        # Invalidate reports: the member indexes survive, and the
        # re-simulation stacks them once more.
        service.invalidate()
        service.run_batch(specs)
        assert session.index_builds == 4

    def test_disjoint_grids_fuse_without_stacking(
        self, unit_coords, biased_labels
    ):
        # Each disjoint grid runs its own region-level pass.
        session = AuditSession(unit_coords, biased_labels)
        service = AuditService(session)
        other = RegionSpec.grid(3, 3, bounds=(0.0, 0.0, 1.0, 1.0))
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6),
            AuditSpec(regions=other, n_worlds=N_WORLDS, seed=6),
        ]
        service.run_batch(specs)
        assert session.index_builds == 2
        assert session.worlds_simulated == N_WORLDS

    def test_single_member_fusion_skips_stacking(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        resolved = session.resolve(
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6)
        )
        assert resolved.engine.index_builds == 1
        fused = resolved.engine.null_distribution_multi(
            [resolved.member], resolved.kernel, N_WORLDS, seed=6
        )
        # A one-design "fusion" scores the member matrix directly.
        assert resolved.engine.index_builds == 1
        solo = MonteCarloEngine().null_distribution_multi(
            [RegionMembership(resolved.regions, session.coords)],
            resolved.kernel,
            N_WORLDS,
            seed=6,
        )[0]
        assert np.array_equal(fused[0], solo)

    def test_solo_runs_count_exactly(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=6)
        session.run(spec)
        session.run(spec)
        session.run_many([spec, spec])
        assert session.index_builds == 1


class TestServiceStreaming:
    def test_advance_skips_unchanged_slices(
        self, unit_coords, biased_labels, unit_y_true
    ):
        session = AuditSession(
            unit_coords[:500],
            biased_labels[:500],
            y_true=unit_y_true[:500],
        )
        service = AuditService(session)
        sp = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        eo = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=8,
            measure="equal_opportunity",
        )
        assert service.watch([sp, eo]) == 2
        assert service.watch(sp) == 2  # deduplicated
        first = service.advance()
        assert len(first) == 2
        # Arrivals with y_true == 0 only touch statistical parity.
        reports = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            y_true=np.zeros(100, dtype=np.int8),
        )
        stats = service.stats()
        assert stats["stream_skips"] == 1
        assert reports[1] is first[1]  # served from the last report
        cold = AuditService(
            AuditSession(
                unit_coords,
                biased_labels,
                y_true=np.concatenate(
                    [unit_y_true[:500], np.zeros(100, dtype=np.int8)]
                ),
            )
        )
        for got, want in zip(reports, cold.run_batch([sp, eo])):
            assert report_json(got) == report_json(want)

    def test_untouched_watched_spec_simulates_nothing(
        self, unit_coords, biased_labels, unit_y_true
    ):
        service = AuditService(
            AuditSession(
                unit_coords[:500],
                biased_labels[:500],
                y_true=unit_y_true[:500],
            )
        )
        eo = AuditSpec(
            regions=GRID,
            n_worlds=N_WORLDS,
            seed=8,
            measure="equal_opportunity",
        )
        service.watch(eo)
        service.advance()
        before = service.stats()
        # Arrivals with y_true == 0 leave the equal-opportunity slice
        # untouched: the report cache answers, nothing is simulated.
        (report,) = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            y_true=np.zeros(100, dtype=np.int8),
        )
        after = service.stats()
        assert after["worlds_simulated"] == before["worlds_simulated"]
        assert (
            after["report_cache_hits"] == before["report_cache_hits"] + 1
        )
        cold = AuditSession(
            unit_coords,
            biased_labels,
            y_true=np.concatenate(
                [unit_y_true[:500], np.zeros(100, dtype=np.int8)]
            ),
        )
        assert report_json(report) == report_json(cold.run(eo))

    def test_advance_window_equals_cold(
        self, unit_coords, biased_labels
    ):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        service = AuditService(
            AuditSession(
                unit_coords[:500],
                biased_labels[:500],
                timestamps=ts[:500],
            )
        )
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        service.watch(spec)
        service.advance()
        (report,) = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            timestamps=ts[500:],
            window=400.0,
        )
        keep = ts >= 199.0
        cold = AuditSession(
            unit_coords[keep], biased_labels[keep], timestamps=ts[keep]
        )
        assert report_json(report) == report_json(cold.run(spec))

    def test_advance_validation(self, unit_coords, biased_labels):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        with pytest.raises(ValueError, match="outcomes are required"):
            service.advance(unit_coords[:5])
        with pytest.raises(ValueError, match="at most one"):
            service.advance(
                window=1.0,
                older_than=2.0,
            )

    @pytest.mark.parametrize(
        "name", ["outcomes", "y_true", "forecast", "timestamps"]
    )
    def test_advance_rejects_arrivals_without_coords(
        self, unit_coords, biased_labels, name
    ):
        session = AuditSession(unit_coords, biased_labels)
        service = AuditService(session)
        with pytest.raises(ValueError, match=f"{name} given without coords"):
            service.advance(**{name: np.ones(5)})
        assert len(session.coords) == len(unit_coords)

    @pytest.mark.parametrize("case", ["negative_window", "mask_length",
                                      "no_timestamps"])
    def test_raising_advance_changes_nothing(
        self, unit_coords, biased_labels, case
    ):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        stamped = case != "no_timestamps"
        session = AuditSession(
            unit_coords[:200],
            biased_labels[:200],
            timestamps=ts[:200] if stamped else None,
        )
        service = AuditService(session)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        service.watch(spec)
        service.advance()
        before = (
            session.coords.copy(),
            session.outcomes.copy(),
            None if session.timestamps is None
            else session.timestamps.copy(),
        )
        arrivals = {"timestamps": ts[200:205]} if stamped else {}
        bad = {
            "negative_window": {"window": -1.0},
            "mask_length": {"evict_mask": np.zeros(200, dtype=bool)},
            "no_timestamps": {"window": 1.0},
        }[case]
        with pytest.raises(ValueError):
            service.advance(
                unit_coords[200:205], biased_labels[200:205],
                **arrivals, **bad,
            )
        assert np.array_equal(session.coords, before[0])
        assert np.array_equal(session.outcomes, before[1])
        if stamped:
            assert np.array_equal(session.timestamps, before[2])
        else:
            assert session.timestamps is None
        # The next valid advance equals a cold run over its result.
        drop = np.zeros(210, dtype=bool)
        drop[:10] = True
        (report,) = service.advance(
            unit_coords[200:210], biased_labels[200:210],
            **({"timestamps": ts[200:210]} if stamped else {}),
            evict_mask=drop,
        )
        cold = AuditSession(unit_coords[10:210], biased_labels[10:210])
        assert report_json(report) == report_json(cold.run(spec))

    def test_in_place_write_between_advances_raises(
        self, unit_coords, biased_labels
    ):
        ts = np.arange(len(unit_coords), dtype=np.float64)
        outcomes = biased_labels[:500].copy()
        session = AuditSession(
            unit_coords[:500], outcomes, timestamps=ts[:500]
        )
        service = AuditService(session)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        service.watch(spec)
        service.advance()
        with pytest.raises(ValueError, match="read-only"):
            session.outcomes[:250] = 1 - session.outcomes[:250]
        # The caller's original array is not the session's.
        outcomes[:250] = 1 - outcomes[:250]
        service.advance()
        assert service.stats()["report_cache_hits"] == 1
        (report,) = service.advance(
            unit_coords[500:],
            biased_labels[500:],
            timestamps=ts[500:],
            window=499.0,
        )
        assert service.stats()["report_cache_hits"] == 1
        cold = AuditSession(unit_coords[100:], biased_labels[100:])
        assert report_json(report) == report_json(cold.run(spec))

    @staticmethod
    def _spy_hashing(monkeypatch) -> list:
        """Record the bytes every content hash reads: inside
        ``dataset_fingerprint`` and where the session hashes one
        array."""
        hashed = []

        def spy(arr):
            hashed.append(0 if arr is None else np.asarray(arr).nbytes)
            return array_fingerprint(arr)

        monkeypatch.setattr(repro.fingerprint, "array_fingerprint", spy)
        monkeypatch.setattr(repro.api, "_array_fingerprint", spy)
        return hashed

    def test_advance_hashes_each_state_once(
        self, unit_coords, biased_labels, monkeypatch
    ):
        hashed = self._spy_hashing(monkeypatch)
        ts = np.arange(len(unit_coords), dtype=np.float64)
        session = AuditSession(
            unit_coords[:500], biased_labels[:500], timestamps=ts[:500]
        )
        service = AuditService(session)
        service.watch([
            AuditSpec(
                regions=RegionSpec.grid(c, c, bounds=(0.0, 0.0, 1.0, 1.0)),
                n_worlds=N_WORLDS,
                seed=8,
            )
            for c in (3, 4, 5)
        ])
        service.advance()
        hashed.clear()
        service.advance(
            unit_coords[500:550],
            biased_labels[500:550],
            timestamps=ts[500:550],
            window=499.0,
        )
        # Only the state the advance ends in is hashed: the one slice
        # all three specs measure, which is that state's own arrays.
        assert len(session.coords) == 500
        state = session.coords.nbytes + session.outcomes.nbytes
        assert 0 < sum(hashed) <= state
        # An unchanged state is never hashed again.
        hashed.clear()
        service.advance()
        session.run(service.watched()[0])
        session.dataset_fingerprint()
        assert hashed == []

    def test_advance_reuses_the_state_digests(
        self, unit_coords, biased_labels, monkeypatch
    ):
        # The watched specs measure statistical_parity, whose slice is
        # the session's own arrays: the report keys and the dataset
        # fingerprint share one hash of the post-evict state.
        hashed = self._spy_hashing(monkeypatch)
        ts = np.arange(len(unit_coords), dtype=np.float64)
        session = AuditSession(
            unit_coords[:500], biased_labels[:500], timestamps=ts[:500]
        )
        service = AuditService(session)
        specs = [
            AuditSpec(
                regions=RegionSpec.grid(c, c, bounds=(0.0, 0.0, 1.0, 1.0)),
                n_worlds=N_WORLDS,
                seed=8,
            )
            for c in (3, 4, 5)
        ]
        service.watch(specs)
        service.advance()
        hashed.clear()
        reports = service.advance(
            unit_coords[500:550],
            biased_labels[500:550],
            timestamps=ts[500:550],
            window=499.0,
        )
        session.dataset_fingerprint()
        state = session.coords.nbytes + session.outcomes.nbytes
        assert len(session.coords) == 500
        assert sum(hashed) <= state
        # Report keys are unchanged: a fresh service over a cold
        # session, hashing its slices itself, hits the same cache key.
        cold = AuditService(
            AuditSession(unit_coords[50:550], biased_labels[50:550])
        )
        for spec, report in zip(specs, reports):
            want = combine_fingerprints({
                "spec": spec.spec_hash(),
                "coords": array_fingerprint(unit_coords[50:550]),
                "outcomes": array_fingerprint(biased_labels[50:550]),
            })
            assert cold._report_key(spec) == want
            assert service._report_key(spec) == want
            assert report_json(report) == report_json(
                cold.session.run(spec)
            )

    def test_unwatch(self, unit_coords, biased_labels):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        sp = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        other = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=9)
        service.watch([sp, other])
        assert [s.seed for s in service.watched()] == [8, 9]
        assert service.unwatch(sp) == 1
        assert [s.seed for s in service.watched()] == [9]
        assert service.unwatch() == 1
        assert service.watched() == []
        assert service.advance() == []

    def test_unseeded_specs_always_rerun(
        self, unit_coords, biased_labels
    ):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=None)
        service.watch(spec)
        service.advance()
        service.advance()
        stats = service.stats()
        assert stats["stream_runs"] == 2
        assert stats["stream_skips"] == 0

    def test_stats_carry_stream_counters(
        self, unit_coords, biased_labels
    ):
        service = AuditService(AuditSession(unit_coords, biased_labels))
        stats = service.stats()
        for key in (
            "incremental_builds",
            "watched",
            "advances",
            "stream_runs",
            "stream_skips",
        ):
            assert key in stats


    def test_evicted_watched_report_reruns(
        self, unit_coords, biased_labels
    ):
        # One cache slot for two watched specs: the second advance
        # finds only the last-finished report and re-runs the other.
        service = AuditService(
            AuditSession(unit_coords, biased_labels), cache_size=1
        )
        specs = [
            AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=s)
            for s in (8, 9)
        ]
        service.watch(specs)
        first = service.advance()
        again = service.advance()
        assert [report_json(r) for r in again] == [
            report_json(r) for r in first
        ]
        stats = service.stats()
        assert stats["stream_runs"] == 3
        assert stats["stream_skips"] == 1

    def test_advance_waits_for_inflight_gather(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords[:500], biased_labels[:500])
        service = AuditService(session)
        spec = AuditSpec(regions=GRID, n_worlds=N_WORLDS, seed=8)
        service.watch(spec)
        out = {}

        def step():
            out["reports"] = service.advance(
                unit_coords[500:], biased_labels[500:]
            )

        service._gather_lock.acquire()  # another thread's gather
        try:
            thread = threading.Thread(target=step)
            thread.start()
            time.sleep(0.3)
            # The session must not move under the in-flight gather.
            assert len(session.coords) == 500
        finally:
            service._gather_lock.release()
        thread.join(timeout=60)
        assert not thread.is_alive()
        cold = AuditSession(unit_coords, biased_labels).run(spec)
        assert report_json(out["reports"][0]) == report_json(cold)


class TestGridEdgeStreaming:
    """Grid deltas are binned by cell, not tested cell by cell: points
    on shared edges, on corners and outside explicit bounds must
    stream in and out exactly as a cold build places them."""

    def test_edge_points_stream_in_and_out(
        self, unit_coords, biased_labels
    ):
        inner = RegionSpec.grid(4, 4, bounds=(0.1, 0.2, 0.9, 0.8))
        specs = [
            AuditSpec(regions=grid, n_worlds=N_WORLDS, seed=6)
            for grid in (GRID, inner, GRID_AUTO)
        ]
        gx = GridPartitioning.regular(Rect(0, 0, 1, 1), 5, 5)
        ix = GridPartitioning.regular(Rect(0.1, 0.2, 0.9, 0.8), 4, 4)
        # Batch a: an inner edge and a corner of GRID (off ``inner``'s
        # edges), points outside ``inner`` only, and one outside both
        # explicit grids (it grows GRID_AUTO's bounding box).
        batch_a = np.array([
            [gx.x_edges[1], 0.45], [gx.x_edges[2], gx.y_edges[3]],
            [0.95, 0.5], [0.05, 0.1],
            [1.5, 0.5],
        ])
        # Batch b: a corner and an outer edge of ``inner``.
        batch_b = np.array([
            [ix.x_edges[1], ix.y_edges[1]], [ix.x_edges[-1], 0.45],
        ])
        n0 = 400
        session = AuditSession(
            unit_coords[:n0], biased_labels[:n0],
            timestamps=np.arange(n0, dtype=np.float64),
        )
        service = AuditService(session)
        service.watch(specs)

        def step(expect_disjoint, **event):
            reports = service.advance(**event)
            s = session
            cold = AuditSession(
                s.coords.copy(), s.outcomes.copy(),
                timestamps=s.timestamps.copy(),
            )
            for spec, report in zip(specs, reports):
                assert report_json(report) == report_json(cold.run(spec))
            disjoint = [
                session.resolve(spec).member.disjoint for spec in specs[:2]
            ]
            assert disjoint == expect_disjoint
            return reports

        def arrive(batch, clock):
            return {
                "coords": batch,
                "outcomes": (np.arange(len(batch)) % 2).astype(np.int8),
                "timestamps": clock + np.arange(len(batch), dtype=float),
            }

        first = step([True, True])
        step([False, True], **arrive(batch_a, n0))
        step([False, False], **arrive(batch_b, n0 + 10))
        # Evict batch a, then batch b: each grid turns disjoint again.
        expired = np.zeros(len(session.coords), dtype=bool)
        expired[n0 : n0 + len(batch_a)] = True
        step([True, False], evict_mask=expired)
        expired = np.arange(len(session.coords)) >= n0
        last = step([True, True], evict_mask=expired)
        # Back to the starting window: the same reports as at first.
        assert [report_json(r) for r in last] == [
            report_json(r) for r in first
        ]


def _false_omission() -> MeasureDef:
    """Among the predicted-negative rows: how often truth was
    positive (a row mask plus an outcome map)."""
    return MeasureDef(
        "false_omission",
        rows=lambda coords, outcomes, y_true: np.asarray(outcomes) == 0,
        outcome=lambda outcomes, y_true: (
            np.asarray(y_true) == 1
        ).astype(np.int8),
        families=("bernoulli",),
        needs_y_true=True,
    )


class TestCustomRowMeasure:
    """A registered measure with a row mask and an outcome map streams
    incrementally, as the built-ins do, and equals a cold run."""

    @pytest.fixture(autouse=True)
    def registered(self):
        register_measure(_false_omission())
        yield
        del MEASURES["false_omission"]

    def _stream(self, design, unit_coords, labels, y_true):
        """Yield ``(session, spec)`` warm, then after an append, a
        prefix window and a scattered mask."""
        n = len(unit_coords)
        head = 3 * n // 4
        ts = np.arange(n, dtype=float)
        session = AuditSession(
            unit_coords[:head], labels[:head], y_true=y_true[:head],
            timestamps=ts[:head],
        )
        spec = AuditSpec(
            regions=design, measure="false_omission",
            n_worlds=N_WORLDS, seed=5,
        )
        session.run(spec)
        yield session, spec
        session.append(
            unit_coords[head:], labels[head:], y_true=y_true[head:],
            timestamps=ts[head:],
        )
        yield session, spec
        session.evict(window=float(n - 1 - n // 8))
        assert session._state.coords.base is not None  # a prefix view
        yield session, spec
        drop = np.zeros(len(session.coords), dtype=bool)
        drop[1::5] = True
        session.evict(drop)
        yield session, spec

    @pytest.mark.parametrize(
        "design",
        [GRID, GRID_AUTO, SQUARES, CIRCLES],
        ids=["grid", "grid-auto", "squares", "circles"],
    )
    def test_streamed_equals_cold(
        self, design, unit_coords, biased_labels, unit_y_true
    ):
        for session, spec in self._stream(
            design, unit_coords, biased_labels, unit_y_true
        ):
            cold = AuditSession(
                session.coords.copy(),
                session.outcomes.copy(),
                y_true=session.y_true.copy(),
            )
            assert report_json(session.run(spec)) == report_json(
                cold.run(spec)
            )

    def test_index_updated_in_place(
        self, unit_coords, biased_labels, unit_y_true
    ):
        events = self._stream(
            GRID, unit_coords, biased_labels, unit_y_true
        )
        session, spec = next(events)
        builds = session.index_builds
        for session, spec in events:
            session.run(spec)
            assert session.index_builds == builds
        assert session.incremental_builds == 3

    def test_malformed_row_mask_names_the_measure(
        self, unit_coords, biased_labels
    ):
        register_measure(
            MeasureDef("short_rows", rows=lambda c, o, y: o[:-1] == 0)
        )
        try:
            session = AuditSession(unit_coords, biased_labels)
            with pytest.raises(ValueError, match="^measure: 'short_rows'"):
                session.run(AuditSpec(regions=GRID, measure="short_rows"))
        finally:
            del MEASURES["short_rows"]


def test_accuracy_measures_refuse_non_binary_predictions(
    unit_coords, biased_labels, unit_y_true
):
    # equal_opportunity audits y_pred itself on the y_true == 1 rows, so
    # a prediction of 2 there is refused, not scored as a 0.
    y_pred = biased_labels.astype(np.int64)
    y_pred[np.flatnonzero(unit_y_true == 1)[0]] = 2
    session = AuditSession(unit_coords, y_pred, y_true=unit_y_true)
    spec = AuditSpec(
        regions=GRID, measure="equal_opportunity", n_worlds=N_WORLDS
    )
    with pytest.raises(ValueError, match="^outcomes: "):
        session.run(spec)
