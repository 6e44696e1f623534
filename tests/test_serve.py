"""Unit tests for :mod:`repro.serve`: the fused batch service.

Acceptance contract of the service layer:

* a fused batch produces reports **bit-identical** to running each
  spec alone through :meth:`repro.api.AuditSession.run`, for every
  family, measure, direction and correction;
* fusion really amortises: one simulation pass per null-model group,
  observable through ``worlds_simulated`` vs ``worlds_requested``;
* the LRU report cache, keyed on the spec hash plus the measured data
  slice, hits on repeats and on data changes outside that slice, is
  explicitly invalidatable, and never caches unseeded
  (non-reproducible) specs;
* concurrent submissions from many threads are deterministic.
"""

import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import AuditService, AuditSession, AuditSpec, RegionSpec
from repro.engine import BernoulliKernel
from repro.index import StackedMembership
from tests.conftest import N_WORLDS
from tests.test_engine import result_fingerprint

#: The unit grid matching the ``unit_regions`` fixture's geometry.
UNIT_GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))


def fused_batch_specs():
    """Six seeded specs over one Bernoulli dataset: one shared
    null-model group (varying designs / alpha / correction) plus a
    directional spec that must *not* share worlds."""
    return [
        AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11),
        AuditSpec(regions=RegionSpec.grid(8, 8), n_worlds=N_WORLDS,
                  seed=11),
        AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                  alpha=0.01),
        AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                  correction="fdr-bh"),
        AuditSpec(regions=RegionSpec.squares(8, sides=(0.2, 0.35)),
                  n_worlds=N_WORLDS, seed=11),
        AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11,
                  direction="lower"),
    ]


@pytest.fixture()
def service(unit_coords, biased_labels):
    return AuditService(AuditSession(unit_coords, biased_labels))


class TestFusedEquivalence:
    """Fused reports are bit-identical to solo AuditSession.run."""

    def test_six_spec_batch(self, unit_coords, biased_labels, service):
        specs = fused_batch_specs()
        reports = service.run_batch(specs)
        solo_session = AuditSession(unit_coords, biased_labels)
        for spec, report in zip(specs, reports):
            solo = solo_session.run(spec)
            assert report.to_dict(full=True) == solo.to_dict(full=True)
            assert result_fingerprint(report.result) == (
                result_fingerprint(solo.result)
            )

    def test_poisson_and_multinomial_groups(
        self, unit_coords, biased_counts, biased_classes
    ):
        observed, forecast = biased_counts
        po = AuditService(
            AuditSession(unit_coords, observed, forecast=forecast)
        )
        po_specs = [
            AuditSpec(regions=UNIT_GRID, family="poisson",
                      n_worlds=N_WORLDS, seed=5),
            AuditSpec(regions=RegionSpec.grid(7, 7), family="poisson",
                      n_worlds=N_WORLDS, seed=5),
        ]
        mu = AuditService(
            AuditSession(unit_coords, biased_classes, n_classes=3)
        )
        mu_specs = [
            AuditSpec(regions=UNIT_GRID, family="multinomial",
                      n_worlds=N_WORLDS, seed=5),
            AuditSpec(regions=RegionSpec.grid(4, 4),
                      family="multinomial", n_worlds=N_WORLDS, seed=5),
        ]
        for svc, specs, solo in (
            (po, po_specs,
             AuditSession(unit_coords, observed, forecast=forecast)),
            (mu, mu_specs,
             AuditSession(unit_coords, biased_classes, n_classes=3)),
        ):
            reports = svc.run_batch(specs)
            assert svc.stats()["fused_groups"] == 1
            for spec, report in zip(specs, reports):
                assert report.to_dict(full=True) == (
                    solo.run(spec).to_dict(full=True)
                )

    def test_measures_do_not_fuse(self, unit_coords, biased_labels):
        rng = np.random.default_rng(0)
        y_true = (rng.random(len(unit_coords)) < 0.5).astype(np.int8)
        svc = AuditService(
            AuditSession(unit_coords, biased_labels, y_true=y_true)
        )
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=2),
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=2,
                      measure="equal_opportunity"),
        ]
        assert svc.plan(specs) == [[0], [1]]
        reports = svc.run_batch(specs)
        solo = AuditSession(unit_coords, biased_labels, y_true=y_true)
        for spec, report in zip(specs, reports):
            assert report.to_dict(full=True) == (
                solo.run(spec).to_dict(full=True)
            )


class TestFusionPlanning:
    def test_shared_null_groups(self, service):
        specs = fused_batch_specs()
        # Specs 0-4 share the two-sided Bernoulli null; 5 is
        # directional and must simulate its own.
        assert service.plan(specs) == [[0, 1, 2, 3, 4], [5]]

    def test_world_budget_splits_groups(self, service):
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1),
            AuditSpec(regions=UNIT_GRID, n_worlds=25, seed=1),
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=2),
        ]
        assert service.plan(specs) == [[0], [1], [2]]

    def test_worlds_amortised(self, service):
        service.run_batch(fused_batch_specs())
        stats = service.stats()
        assert stats["worlds_requested"] == 6 * N_WORLDS
        # Two groups -> two simulation passes, a 3x saving.
        assert stats["worlds_simulated"] == 2 * N_WORLDS
        assert stats["fused_groups"] == 2
        assert stats["fused_specs"] == 6


class TestResultCache:
    def test_repeat_hits_cache(self, service):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3)
        first = service.run_batch([spec])[0]
        again = service.run_batch([spec])[0]
        stats = service.stats()
        assert stats["report_cache_hits"] == 1
        # The cached report is served as-is, no worlds re-simulated.
        assert again is first
        assert stats["worlds_simulated"] == N_WORLDS

    def test_workers_do_not_split_cache_keys(self, service):
        a = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3)
        b = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3,
                      workers=2)
        assert a.spec_hash() == b.spec_hash()
        service.run_batch([a])
        service.run_batch([b])
        assert service.stats()["report_cache_hits"] == 1

    def test_duplicates_in_one_batch_compute_once(self, service):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=4)
        r1, r2 = service.run_batch([spec, spec])
        assert r1 is r2
        assert service.stats()["completed"] == 2

    def test_invalidate_one_and_all(self, service):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3)
        other = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=4)
        service.run_batch([spec, other])
        assert service.invalidate(spec) == 1
        assert service.invalidate(spec) == 0
        service.run_batch([spec])
        assert service.stats()["report_cache_misses"] == 3
        assert service.invalidate() == 2
        assert service.stats()["report_cache_size"] == 0

    def test_lru_eviction(self, unit_coords, biased_labels):
        svc = AuditService(
            AuditSession(unit_coords, biased_labels), cache_size=2
        )
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=s)
            for s in (1, 2, 3)
        ]
        svc.run_batch(specs)
        assert svc.stats()["report_cache_size"] == 2
        # seed=1 was evicted; a repeat misses and recomputes.
        svc.run_batch([specs[0]])
        assert svc.stats()["report_cache_hits"] == 0

    @pytest.mark.parametrize("bad", [-1, 2.5, "8", True, None])
    def test_bad_cache_size_rejected(self, unit_coords, biased_labels,
                                     bad):
        session = AuditSession(unit_coords, biased_labels)
        with pytest.raises(ValueError, match="cache_size"):
            AuditService(session, cache_size=bad)

    def test_zero_cache_size_disables_caching(self, unit_coords,
                                              biased_labels):
        svc = AuditService(
            AuditSession(unit_coords, biased_labels), cache_size=0
        )
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3)
        first = svc.run_batch([spec])[0]
        again = svc.run_batch([spec])[0]
        assert svc.stats()["report_cache_size"] == 0
        assert svc.stats()["report_cache_hits"] == 0
        assert again.to_dict(full=True) == first.to_dict(full=True)

    def test_unseeded_specs_never_cached(self, service):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS)
        service.run_batch([spec])
        assert service.stats()["report_cache_size"] == 0
        assert service.stats()["report_cache_misses"] == 0

    def test_hit_survives_changes_outside_the_measured_slice(
        self, unit_coords, biased_labels
    ):
        rng = np.random.default_rng(7)
        y_true = (rng.random(len(unit_coords)) < 0.5).astype(np.int8)
        svc = AuditService(
            AuditSession(
                unit_coords[:500], biased_labels[:500],
                y_true=y_true[:500],
            )
        )
        eo = AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3,
            measure="equal_opportunity",
        )
        (first,) = svc.run_batch([eo])
        # Arrivals with y_true == 0 lie outside the eo slice.
        svc.session.append(
            unit_coords[500:], biased_labels[500:],
            y_true=np.zeros(len(unit_coords) - 500, dtype=np.int8),
        )
        (again,) = svc.run_batch([eo])
        assert again is first
        assert svc.stats()["report_cache_hits"] == 1


def test_stats_survive_engines_changing_underfoot(
    unit_coords, biased_labels
):
    # A concurrent resolve or stream event may add an engine while
    # stats() sums the per-engine counters.
    service = AuditService(AuditSession(unit_coords, biased_labels))
    engines = service.session._engines

    class GrowingEngine:
        incremental_builds = 0
        worlds_simulated = 0

        @property
        def index_builds(self):
            engines[("late", len(engines))] = SimpleNamespace(
                index_builds=0, incremental_builds=0, worlds_simulated=0
            )
            return 0

    engines[("stub", "measure")] = GrowingEngine()
    assert service.stats()["index_builds"] == 0


class TestAsyncFlow:
    def test_submit_then_gather(self, service):
        tickets = [
            service.submit(spec) for spec in fused_batch_specs()
        ]
        assert service.pending() == 6
        assert not tickets[0].done()
        reports = service.gather()
        assert len(reports) == 6
        assert service.pending() == 0
        assert all(t.done() for t in tickets)
        assert [t.result() for t in tickets] == reports

    def test_result_drives_gather(self, service):
        ticket = service.submit(
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=9)
        )
        report = ticket.result()
        assert report.spec.seed == 9 and ticket.done()

    def test_result_timeout_honoured_during_inflight_gather(
        self, service
    ):
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=9)
        ticket = service.submit(spec)
        # Simulate another thread mid-gather: result() must not drive
        # its own drain, and must give up after the timeout.
        with service._gather_lock:
            with pytest.raises(TimeoutError, match="still pending"):
                ticket.result(timeout=0.05)
        # Lock released: result() drains the queue itself and wins.
        assert ticket.result(timeout=5.0).spec == spec

    def test_concurrent_submits_are_deterministic(
        self, unit_coords, biased_labels, service
    ):
        specs = fused_batch_specs()
        tickets: dict = {}

        def submit_shuffled(order):
            for i in order:
                tickets.setdefault(i, []).append(
                    service.submit(specs[i])
                )

        rng = np.random.default_rng(0)
        threads = [
            threading.Thread(
                target=submit_shuffled,
                args=(rng.permutation(len(specs)),),
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.gather()
        solo = AuditSession(unit_coords, biased_labels)
        for i, spec in enumerate(specs):
            expected = result_fingerprint(solo.run(spec).result)
            for ticket in tickets[i]:
                got = result_fingerprint(ticket.result().result)
                assert got == expected

    def test_spec_errors_resolve_only_their_ticket(
        self, unit_coords, biased_labels, service
    ):
        good = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        needs_truth = AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1,
            measure="equal_opportunity",
        )
        t_good = service.submit(good)
        t_bad = service.submit(needs_truth)
        reports = service.gather()
        assert len(reports) == 1
        assert t_good.result().is_fair is not None
        with pytest.raises(ValueError, match="y_true"):
            t_bad.result()
        assert service.stats()["errors"] == 1

    @staticmethod
    def _result_in_thread(ticket, timeout):
        """``ticket.result(timeout)`` on a helper thread joined with a
        bound, so a hang fails the test instead of stalling it."""
        outcome = {}

        def wait():
            try:
                outcome["report"] = ticket.result(timeout=timeout)
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        thread.join(timeout + 10.0)
        assert not thread.is_alive(), "result() ignored its timeout"
        return outcome

    def test_escaping_execute_error_resolves_the_batch(
        self, service, monkeypatch
    ):
        boom = RuntimeError("grouping failed")

        def fail(resolved):
            raise boom

        monkeypatch.setattr(AuditService, "_group_key", staticmethod(fail))
        tickets = [
            service.submit(
                AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=s)
            )
            for s in (1, 2)
        ]
        assert service.gather() == []
        assert all(t.done() for t in tickets)
        for ticket in tickets:
            assert self._result_in_thread(ticket, 1.0)["error"] is boom
        assert service.stats()["errors"] == 2

    def test_result_deadline_holds_for_an_unqueued_ticket(self, service):
        # A ticket no batch holds: each drain finds nothing, so only the
        # deadline can end the wait.
        orphan = repro.PendingAudit(
            service, AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        )
        outcome = self._result_in_thread(orphan, 0.2)
        assert isinstance(outcome["error"], TimeoutError)

    def test_repeated_gather_hashes_nothing(self, service, monkeypatch):
        import repro.api
        import repro.fingerprint

        hashed = []
        real = repro.fingerprint.array_fingerprint

        def spy(arr):
            hashed.append(arr)
            return real(arr)

        monkeypatch.setattr(repro.fingerprint, "array_fingerprint", spy)
        monkeypatch.setattr(repro.api, "_array_fingerprint", spy)
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=4)
        service.run_batch([spec])
        assert hashed  # the first report key hashes the state once
        hashed.clear()
        service.run_batch([spec, spec])
        service.session.run(spec)
        service.session.dataset_fingerprint()
        assert hashed == []

    def test_submit_rejects_non_specs(self, service):
        with pytest.raises(ValueError, match="AuditSpec"):
            service.submit({"regions": {"kind": "grid"}})

    def test_service_rejects_non_sessions(self):
        with pytest.raises(ValueError, match="AuditSession"):
            AuditService("not a session")


class TestEngineMultiHook:
    """null_distribution_multi and the run_scan null_max hook."""

    def test_multi_matches_single(self, unit_coords, biased_labels,
                                  service):
        session = service.session
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=21),
            AuditSpec(regions=RegionSpec.grid(9, 9),
                      n_worlds=N_WORLDS, seed=21),
        ]
        resolved = [session.resolve(s) for s in specs]
        engine = resolved[0].engine
        fused = engine.null_distribution_multi(
            [r.member for r in resolved],
            resolved[0].kernel,
            N_WORLDS,
            seed=21,
        )
        fresh = AuditSession(unit_coords, biased_labels)
        for spec, r, null in zip(specs, resolved, fused):
            solo_r = fresh.resolve(spec)
            solo = solo_r.engine.null_distribution(
                solo_r.member, solo_r.kernel, N_WORLDS, seed=21
            )
            assert (null == solo).all()

    def test_multi_deduplicates_by_identity(self, service):
        session = service.session
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=8)
        r = session.resolve(spec)
        engine = r.engine
        nulls = engine.null_distribution_multi(
            [r.member, r.member], r.kernel, N_WORLDS, seed=8
        )
        assert (nulls[0] == nulls[1]).all()
        assert engine.worlds_simulated == N_WORLDS

    def test_multi_parallel_bit_identical(self, unit_coords,
                                          biased_labels):
        specs = [
            AuditSpec(regions=UNIT_GRID, n_worlds=32, seed=13),
            AuditSpec(regions=RegionSpec.grid(6, 6), n_worlds=32,
                      seed=13),
        ]
        outs = []
        for workers in (1, 2):
            session = AuditSession(unit_coords, biased_labels)
            resolved = [session.resolve(s) for s in specs]
            outs.append(
                resolved[0].engine.null_distribution_multi(
                    [r.member for r in resolved],
                    resolved[0].kernel,
                    32,
                    seed=13,
                    workers=workers,
                    chunk_worlds=8,
                )
            )
        for serial, parallel in zip(*outs):
            assert (serial == parallel).all()

    def test_run_scan_null_max_hook(self, unit_coords, biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        spec = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=6)
        r = session.resolve(spec)
        null = r.engine.null_distribution(
            r.member, r.kernel, N_WORLDS, seed=6
        )
        hooked = session.run(spec, null_max=null)
        assert hooked.to_dict(full=True) == (
            session.run(spec).to_dict(full=True)
        )
        with pytest.raises(ValueError, match="null_max"):
            session.run(spec, null_max=null[:-1])

    def test_stacked_membership_invariants(self, unit_coords,
                                           biased_labels):
        session = AuditSession(unit_coords, biased_labels)
        members = [
            session.resolve(
                AuditSpec(regions=design, n_worlds=N_WORLDS, seed=1)
            ).member
            for design in (UNIT_GRID, RegionSpec.grid(3, 3))
        ]
        stacked = StackedMembership(members)
        assert len(stacked) == sum(len(m) for m in members)
        assert stacked.segments == [(0, 25), (25, 34)]
        labels = np.asarray(biased_labels, dtype=np.float64)
        split = stacked.split(stacked.positive_counts(labels))
        for member, part in zip(members, split):
            assert (part == member.positive_counts(labels)).all()
        with pytest.raises(ValueError, match="at least one"):
            StackedMembership([])

    def test_stacked_membership_rejects_mismatched_points(
        self, unit_coords, biased_labels
    ):
        a = AuditSession(unit_coords, biased_labels)
        b = AuditSession(unit_coords[:100], biased_labels[:100])
        members = [
            a.resolve(
                AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
            ).member,
            b.resolve(
                AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
            ).member,
        ]
        with pytest.raises(ValueError, match="same"):
            StackedMembership(members)


class TestSpecHash:
    def test_hash_is_stable_and_content_addressed(self):
        a = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=1)
        b = AuditSpec.from_json(a.to_json())
        assert a.spec_hash() == b.spec_hash()
        c = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=2)
        assert a.spec_hash() != c.spec_hash()

    def test_kernel_shares_simulation_across_directions_never(
        self, unit_coords, biased_labels
    ):
        # Directional Bernoulli nulls are directional distributions;
        # their kernels must carry distinct cache keys.
        two = BernoulliKernel(100, 50, direction=0)
        low = BernoulliKernel(100, 50, direction=-1)
        assert two.cache_key() != low.cache_key()


class TestCLIBatch:
    def test_batch_subcommand(self, tmp_path, unit_coords,
                              biased_labels, capsys):
        from repro.__main__ import main

        np.savez(
            tmp_path / "data.npz",
            coords=unit_coords,
            y_pred=np.asarray(biased_labels),
        )
        paths = []
        for i, spec in enumerate(fused_batch_specs()[:3]):
            p = tmp_path / f"spec{i}.json"
            p.write_text(spec.to_json())
            paths.append(str(p))
        rc = main(
            ["batch", *paths, "--data", str(tmp_path / "data.npz")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["reports"]) == 3
        assert payload["service"]["fused_groups"] == 1
        assert payload["service"]["worlds_simulated"] == N_WORLDS
        assert (
            payload["service"]["worlds_requested"] == 3 * N_WORLDS
        )

    def test_batch_rejects_bad_spec(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["batch", str(bad), "--data", "unused.npz"])
        assert rc == 2
        assert "invalid spec" in capsys.readouterr().err


def test_repro_exports_service():
    assert repro.AuditService is AuditService
    assert repro.PendingAudit.__module__ == "repro.serve"


class TestFusedWorkerRule:
    """The fused pass runs at the max of each member's *effective*
    worker request (its explicit ``workers`` if set, else the session
    default).  Regression: the old rule only looked at explicit spec
    values, so ``[workers=1, workers=None]`` under a parallel session
    throttled the None member below its session default."""

    def _captured_workers(self, unit_coords, biased_labels,
                          monkeypatch, session_workers, spec_workers):
        from repro.engine import MonteCarloEngine

        session = AuditSession(
            unit_coords, biased_labels, workers=session_workers
        )
        service = AuditService(session)
        captured = []
        original = MonteCarloEngine.null_distribution_multi

        def spy(self, *args, **kwargs):
            captured.append(kwargs.get("workers"))
            # Record the requested count but simulate serially: the
            # worker count is a pure perf knob, results identical.
            kwargs["workers"] = 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            MonteCarloEngine, "null_distribution_multi", spy
        )
        # Distinct designs so the specs keep distinct hashes (no
        # report-cache dedup) yet share one null model and fuse.
        designs = [UNIT_GRID, RegionSpec.grid(8, 8)]
        specs = [
            AuditSpec(regions=design, n_worlds=N_WORLDS, seed=21,
                      workers=w)
            for design, w in zip(designs, spec_workers)
        ]
        service.run_batch(specs)
        assert len(captured) == 1, "specs must fuse into one pass"
        return captured[0]

    def test_session_default_beats_smaller_explicit(
        self, unit_coords, biased_labels, monkeypatch
    ):
        got = self._captured_workers(
            unit_coords, biased_labels, monkeypatch,
            session_workers=3, spec_workers=[1, None],
        )
        assert got == 3

    def test_larger_explicit_beats_session_default(
        self, unit_coords, biased_labels, monkeypatch
    ):
        got = self._captured_workers(
            unit_coords, biased_labels, monkeypatch,
            session_workers=3, spec_workers=[4, None],
        )
        assert got == 4

    def test_all_defaulted_stays_default(
        self, unit_coords, biased_labels, monkeypatch
    ):
        got = self._captured_workers(
            unit_coords, biased_labels, monkeypatch,
            session_workers=None, spec_workers=[None, None],
        )
        assert got is None
