"""Multi-tenant gateway: admission control, determinism, HTTP API."""

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import AuditSession
from repro.faults import FaultInjected, clear_faults, install_faults
from repro.fingerprint import dataset_fingerprint
import repro.gateway
from repro.gateway import (
    MAX_BODY_BYTES,
    AuditGateway,
    GatewayDrainingError,
    GatewayFullError,
    GatewayHTTPServer,
    GatewayTicket,
    StoredTicket,
    TenantQuotaError,
    TicketRecoveryError,
    UnknownDatasetError,
)
from repro.spec import AuditSpec, RegionSpec

from .conftest import N_WORLDS


def _spec(seed=1, nx=4, ny=4, n_worlds=N_WORLDS, **kwargs):
    return AuditSpec(
        regions=RegionSpec.grid(nx, ny),
        n_worlds=n_worlds,
        seed=seed,
        **kwargs,
    )


def _payload(report) -> str:
    return json.dumps(report.to_dict(full=True), sort_keys=True)


@pytest.fixture()
def gateway(unit_coords, biased_labels):
    gw = AuditGateway(queue_size=16)
    gw.register("unit", unit_coords, biased_labels)
    yield gw
    gw.close()


class TestAdmission:
    def test_run_bit_identical_to_solo(
        self, gateway, unit_coords, biased_labels
    ):
        spec = _spec(seed=7)
        solo = AuditSession(unit_coords, biased_labels).run(spec)
        via = gateway.run("unit", spec, tenant="alice")
        assert _payload(via) == _payload(solo)

    def test_unknown_dataset(self, gateway):
        with pytest.raises(UnknownDatasetError):
            gateway.submit("ghost", _spec())

    def test_queue_full_rejects_with_retry_after(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=2)
        gw.register("unit", unit_coords, biased_labels)
        t1 = gw.submit("unit", _spec(1))
        gw.submit("unit", _spec(2))
        with pytest.raises(GatewayFullError) as info:
            gw.submit("unit", _spec(3))
        assert info.value.retry_after > 0
        assert info.value.http_status == 429
        # Redeeming a ticket frees a slot at the next submit's reap.
        t1.result()
        gw.submit("unit", _spec(3))
        assert gw.stats()["rejected_full"] == 1

    def test_tenant_quota_isolates_tenants(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=16, tenant_quota=1)
        gw.register("unit", unit_coords, biased_labels)
        gw.submit("unit", _spec(1), tenant="chatty")
        with pytest.raises(TenantQuotaError):
            gw.submit("unit", _spec(2), tenant="chatty")
        gw.submit("unit", _spec(2), tenant="polite")  # still admitted
        assert gw.stats()["rejected_quota"] == 1

    def test_ticket_lookup(self, gateway):
        ticket = gateway.submit("unit", _spec(1))
        assert gateway.ticket(ticket.id) is ticket
        with pytest.raises(KeyError):
            gateway.ticket("t-999999")
        ticket.result()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="queue_size"):
            AuditGateway(queue_size=0)
        with pytest.raises(ValueError, match="tenant_quota"):
            AuditGateway(tenant_quota=0)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("queue_size", 2.7),
            ("queue_size", "8"),
            ("tenant_quota", 2.7),
            ("tenant_quota", "2"),
            ("cache_size", -1),
            ("cache_size", 2.5),
            ("cache_size", "8"),
            ("workers", 0),
            ("workers", 2.5),
            ("workers", "2"),
        ],
    )
    def test_non_integer_or_negative_bounds_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            AuditGateway(**{field: bad})

    def test_spec_error_resolves_ticket_with_error(self, gateway):
        # Poisson needs a forecast the dataset lacks.
        ticket = gateway.submit(
            "unit", _spec(1, family="poisson")
        )
        gateway.gather()
        with pytest.raises(ValueError):
            ticket.result()
        assert gateway.stats()["errors"] == 1


class TestBatchesAndStats:
    def test_run_batch_fuses_one_group(self, gateway):
        specs = [_spec(seed=3, nx=n, ny=n) for n in (2, 3, 4)]
        reports = gateway.run_batch("unit", specs, tenant="team")
        assert len(reports) == 3
        service = gateway.service("unit")
        assert service.stats()["fused_groups"] == 1

    def test_stats_shape(self, gateway):
        gateway.run("unit", _spec(1), tenant="alice")
        stats = gateway.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["queue_depth"] == 0
        assert stats["queue_peak"] == 1
        assert stats["latency_avg_ms"] > 0
        assert stats["tenants"]["alice"]["completed"] == 1
        assert list(stats["datasets"]) == ["unit"]
        assert stats["datasets"]["unit"] == (
            gateway.service("unit").stats()
        )

    def test_register_replacement_rebuilds_service(
        self, gateway, unit_coords, biased_labels
    ):
        before = gateway.service("unit")
        gateway.register("unit", unit_coords, biased_labels)
        assert gateway.service("unit") is before  # same content
        gateway.register(
            "unit", unit_coords[:100], biased_labels[:100]
        )
        after = gateway.service("unit")
        assert after is not before
        assert len(after.session.coords) == 100

    def test_stats_json_serializable(self, gateway):
        gateway.run("unit", _spec(1))
        json.dumps(gateway.stats())

    def test_latency_ends_at_resolution_not_redeem(
        self, gateway, monkeypatch
    ):
        now = [100.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        ticket = gateway.submit("unit", _spec(seed=5), tenant="alice")
        now[0] += 0.335  # the audit takes 335 ms ...
        gateway.service("unit").gather()
        now[0] += 1.0  # ... and the client redeems it a second later
        ticket.result()
        stats = gateway.stats()
        assert stats["latency_max_ms"] == pytest.approx(335.0)
        assert stats["latency_avg_ms"] == pytest.approx(335.0)

    def test_every_resolve_site_settles_exactly_once(
        self, gateway, monkeypatch
    ):
        gateway.run("unit", _spec(seed=1))  # warms the report cache
        resolves = []
        resolve = GatewayTicket._resolve

        def counted(ticket, report=None, error=None):
            resolves.append(ticket.id)
            resolve(ticket, report, error)

        monkeypatch.setattr(GatewayTicket, "_resolve", counted)
        # The first fused group to run fails as a whole.
        install_faults("serve.run_group:at=1")
        batch = [
            (_spec(seed=7), "alice"),  # group failure
            (_spec(seed=1), "alice"),  # report-cache hit
            (_spec(seed=2), "bob"),
            (_spec(seed=2), "bob"),  # duplicate within the batch
            # equal_opportunity needs the y_true 'unit' lacks: the
            # seeded spec fails at its report key, the unseeded one
            # at resolution.
            (_spec(seed=3, measure="equal_opportunity"), "bob"),
            (_spec(seed=None, measure="equal_opportunity"), "alice"),
        ]
        tickets = [
            gateway.submit("unit", spec, tenant=tenant)
            for spec, tenant in batch
        ]
        gateway.gather("unit")
        # Everything is accounted at resolution, before any redeem.
        stats = gateway.stats()
        assert stats["submitted"] == 7
        assert stats["completed"] == 4 and stats["errors"] == 3
        assert stats["queue_depth"] == 0
        inflight = {
            name: bucket["inflight"]
            for name, bucket in stats["tenants"].items()
        }
        assert inflight == {"default": 0, "alice": 0, "bob": 0}
        assert sorted(resolves) == sorted(t.id for t in tickets)
        with pytest.raises(FaultInjected):
            tickets[0].result()
        assert tickets[1].result() is not None
        assert _payload(tickets[2].result()) == _payload(
            tickets[3].result()
        )
        for ticket in tickets[4:]:
            with pytest.raises(ValueError):
                ticket.result()


    def test_escaping_execute_error_still_drains(
        self, gateway, monkeypatch
    ):
        from repro.serve import AuditService

        def fail(resolved):
            raise RuntimeError("grouping failed")

        monkeypatch.setattr(AuditService, "_group_key", staticmethod(fail))
        ticket = gateway.submit("unit", _spec(seed=5))
        drained = []
        thread = threading.Thread(
            target=lambda: drained.append(gateway.drain(timeout=1.0)),
            daemon=True,
        )
        thread.start()
        thread.join(15.0)
        assert not thread.is_alive(), "drain() never returned"
        assert drained == [1]
        stats = gateway.stats()
        assert stats["errors"] == 1 and stats["completed"] == 0
        with pytest.raises(RuntimeError, match="grouping failed"):
            ticket.result(timeout=1.0)


class TestDatasets:
    def test_register_stores_inputs(
        self, gateway, unit_coords, biased_labels
    ):
        session = gateway.service("unit").session
        assert np.array_equal(session.coords, unit_coords)
        assert np.array_equal(session.outcomes, biased_labels)
        assert gateway.datasets()[0]["points"] == len(unit_coords)

    def test_stored_arrays_are_read_only(self, gateway):
        session = gateway.service("unit").session
        with pytest.raises(ValueError):
            session.coords[0, 0] = 42.0

    def test_register_stores_read_only_private_copy(
        self, gateway, unit_coords, biased_labels
    ):
        session = gateway.service("unit").session
        for stored, given in (
            (session.coords, unit_coords),
            (session.outcomes, biased_labels),
        ):
            assert not np.shares_memory(stored, given)
            with pytest.raises(ValueError):
                stored[0] = 5
        gateway.close()
        gateway.close()

    def test_fingerprint_matches_module_function(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        entry = gw.register("d", unit_coords, biased_labels)
        assert entry == {
            "name": "d",
            "fingerprint": dataset_fingerprint(
                np.asarray(unit_coords, dtype=np.float64),
                np.asarray(biased_labels),
            ),
            "points": len(unit_coords),
        }
        assert gw.datasets() == [entry]

    def test_register_hashes_once(
        self, monkeypatch, unit_coords, biased_labels
    ):
        from repro import api

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return dataset_fingerprint(*args, **kwargs)

        monkeypatch.setattr(api, "_dataset_fingerprint", counting)
        AuditGateway().register("d", unit_coords, biased_labels)
        assert len(calls) == 1

    def test_optional_arrays_reach_the_session(
        self, unit_coords, biased_counts
    ):
        observed, forecast = biased_counts
        gw = AuditGateway()
        gw.register(
            "d", unit_coords, observed, forecast=forecast, n_classes=3
        )
        session = gw.service("d").session
        assert np.array_equal(session.forecast, forecast)
        assert session.y_true is None
        assert session.n_classes == 3

    def test_register_rejects_bad_arrays(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        with pytest.raises(ValueError, match="coords"):
            gw.register("d", np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="coords: expected finite"):
            gw.register("d", np.full((5, 2), np.inf), np.zeros(5))
        with pytest.raises(ValueError, match="^y_true: length"):
            gw.register(
                "d", unit_coords, biased_labels, y_true=biased_labels[:3]
            )
        assert gw.datasets() == []

    def test_register_rejects_non_finite_coords(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        coords = unit_coords.copy()
        coords[0, 1] = np.nan
        with pytest.raises(ValueError, match="coords: expected finite"):
            gw.register("a", coords, biased_labels)
        assert gw.datasets() == []
        with pytest.raises(UnknownDatasetError):
            gw.service("a")

    @pytest.mark.parametrize("field, value", [
        ("coords", {}),
        ("outcomes", [None] + [0] * 299),
        ("outcomes", [2**64] + [0] * 299),
        ("y_true", [None] + [0] * 299),
    ])
    def test_register_rejects_unconvertible_arrays(
        self, unit_coords, biased_labels, field, value
    ):
        # These were untyped TypeErrors, from float() or from
        # hashing an object array.
        arrays = {"coords": unit_coords, "outcomes": biased_labels,
                  "y_true": biased_labels, field: value}
        gw = AuditGateway()
        with pytest.raises(ValueError, match=f"^{field}: "):
            gw.register("d", **arrays)
        assert gw.datasets() == []
        if field != "coords":
            session = AuditSession(unit_coords[:300], biased_labels[:300],
                                   y_true=biased_labels[:300])
            batch = {"outcomes": [0] * 300, "y_true": [0] * 300,
                     field: value}
            with pytest.raises(ValueError, match=f"^{field}: "):
                session.append(unit_coords[:300], **batch)
            assert len(session.coords) == 300

    def test_dataset_session_runs_bit_identical(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        gw.register("a", unit_coords, biased_labels)
        spec = AuditSpec(
            regions=RegionSpec.grid(4, 4), n_worlds=N_WORLDS, seed=3
        )
        direct = AuditSession(unit_coords, biased_labels).run(spec)
        via = gw.service("a").session.run(spec)
        assert _payload(via) == _payload(direct)

    def test_rebind_name_to_new_content(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        old = gw.register("a", unit_coords, biased_labels)
        old_service = gw.service("a")
        new = gw.register("a", unit_coords[:100], biased_labels[:100])
        assert new["fingerprint"] != old["fingerprint"]
        assert gw.service("a") is not old_service
        assert gw.datasets() == [new]
        assert new["points"] == 100

    def test_datasets_sorted_by_name(self, unit_coords, biased_labels):
        gw = AuditGateway()
        gw.register("b", unit_coords, biased_labels)
        gw.register("a", unit_coords[:50], biased_labels[:50])
        assert [(d["name"], d["points"]) for d in gw.datasets()] == [
            ("a", 50),
            ("b", len(unit_coords)),
        ]

    def test_unknown_name_lists_known(self, gateway):
        with pytest.raises(
            UnknownDatasetError,
            match="unknown dataset 'ghost'; registered: unit",
        ):
            gateway.service("ghost")

    def test_close_is_idempotent(self, gateway):
        gateway.close()
        assert gateway.datasets() == []
        gateway.close()

    def test_service_after_close_raises(self, gateway):
        gateway.close()
        with pytest.raises(UnknownDatasetError):
            gateway.service("unit")


class TestConcurrency:
    def test_concurrent_tenants_stay_deterministic(
        self, unit_coords, biased_labels
    ):
        """Many threads, many tenants, interleaved submits and
        redeems: every report must equal its solo run bit for bit."""
        gw = AuditGateway(queue_size=64)
        gw.register("unit", unit_coords, biased_labels)
        seeds = [1, 2, 3, 4]
        solo = {}
        session = AuditSession(unit_coords, biased_labels)
        for seed in seeds:
            solo[seed] = _payload(session.run(_spec(seed)))
        results: dict = {}
        errors: list = []

        def tenant_run(tenant: str, seed: int):
            try:
                report = gw.run("unit", _spec(seed), tenant=tenant)
                results[(tenant, seed)] = _payload(report)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant_run, args=(f"t{i}", seed))
            for i, seed in enumerate(seeds * 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for (tenant, seed), payload in results.items():
            assert payload == solo[seed], (tenant, seed)
        stats = gw.stats()
        assert stats["completed"] == len(threads)
        assert stats["queue_depth"] == 0

    def test_concurrent_gathers_settle_each_ticket_once(
        self, tmp_path, unit_coords, biased_labels
    ):
        """Threads that submit, then gather or redeem, all at once:
        whichever gather resolves a ticket, it is counted and
        journalled exactly once."""
        gw = AuditGateway(queue_size=64, store=tmp_path / "j.sqlite")
        gw.register("unit", unit_coords, biased_labels)
        settles: list = []
        record_settle = gw.store.record_settle

        def counted(ticket_id, **kwargs):
            settles.append(ticket_id)
            return record_settle(ticket_id, **kwargs)

        gw.store.record_settle = counted
        tickets: list = []
        errors: list = []

        def client(i: int):
            try:
                ticket = gw.submit(
                    "unit", _spec(seed=1 + i % 3), tenant=f"t{i % 2}"
                )
                tickets.append(ticket)
                if i % 2:
                    gw.gather()
                else:
                    ticket.result()
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            stats = gw.stats()
            assert stats["submitted"] == stats["completed"] == 8
            assert stats["queue_depth"] == 0
            assert all(
                bucket["inflight"] == 0
                for bucket in stats["tenants"].values()
            )
            assert sorted(settles) == sorted(t.id for t in tickets)
            assert all(
                gw.store.get(t.id).state == "done" for t in tickets
            )
        finally:
            gw.close()

    def test_concurrent_submits_never_overshoot_the_queue(
        self, tmp_path, unit_coords, biased_labels
    ):
        gw = AuditGateway(queue_size=1, store=tmp_path / "j.sqlite")
        gw.register("unit", unit_coords, biased_labels)
        # A slow journal write widens the window between the bound
        # check and the registration of each submission.
        install_faults("ticketstore.write:action=sleep:delay=0.05")
        barrier = threading.Barrier(4)
        admitted: list = []
        rejected: list = []

        def client(seed: int):
            barrier.wait(timeout=10)
            try:
                admitted.append(gw.submit("unit", _spec(seed=seed)))
            except GatewayFullError:
                rejected.append(seed)

        threads = [
            threading.Thread(target=client, args=(seed,))
            for seed in range(1, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert len(admitted) == 1 and len(rejected) == 3
            assert gw.stats()["queue_peak"] == 1
        finally:
            gw.close()

    def test_stats_snapshot_under_load(
        self, unit_coords, biased_labels
    ):
        """stats() must never tear while gathers run concurrently."""
        gw = AuditGateway(queue_size=64)
        gw.register("unit", unit_coords, biased_labels)
        stop = threading.Event()
        torn: list = []

        def poll():
            while not stop.is_set():
                snap = gw.service("unit").stats()
                if snap["fused_specs"] < snap["fused_groups"]:
                    torn.append(snap)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            for seed in range(1, 6):
                gw.run("unit", _spec(seed, n_worlds=25))
        finally:
            stop.set()
            poller.join()
        assert not torn


class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, gateway):
        tickets = [gateway.submit("unit", _spec(s)) for s in (1, 2)]
        resolved = gateway.drain()
        assert resolved == 2
        assert gateway.draining
        assert all(t.done() for t in tickets)
        with pytest.raises(GatewayDrainingError):
            gateway.submit("unit", _spec(3))
        assert gateway.stats()["rejected_draining"] == 1

    def test_close_drains_and_releases(
        self, unit_coords, biased_labels
    ):
        gw = AuditGateway()
        gw.register("unit", unit_coords, biased_labels)
        gw.submit("unit", _spec(1))
        gw.close()
        assert gw.draining
        assert gw.datasets() == []

    def test_serve_http_blocks_until_signal(
        self, unit_coords, biased_labels
    ):
        """serve_http must announce, serve, and drain on SIGINT."""
        import os
        import signal

        from repro.gateway import serve_http

        gw = AuditGateway()
        gw.register("unit", unit_coords, biased_labels)
        seen: dict = {}

        def ready(server):
            seen["url"] = server.url

            def poke():
                status, body, _ = _Client(server.url).get("/healthz")
                seen["health"] = (status, body)
                os.kill(os.getpid(), signal.SIGINT)

            threading.Thread(target=poke).start()

        serve_http(gw, port=0, ready=ready)
        assert seen["health"][0] == 200
        assert gw.draining


class _Client:
    """Tiny urllib JSON client against an in-process server."""

    def __init__(self, url: str):
        self.url = url

    def request(self, method, path, payload=None):
        data = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        req = urllib.request.Request(
            self.url + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read()), dict(
                    resp.headers
                )
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), dict(err.headers)

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload):
        return self.request("POST", path, payload)


@pytest.fixture()
def http(unit_coords, biased_labels):
    gw = AuditGateway(queue_size=2)
    server = GatewayHTTPServer(gw, port=0)
    server.start()
    client = _Client(server.url)
    status, body, _ = client.post(
        "/datasets",
        {
            "name": "unit",
            "coords": unit_coords.tolist(),
            "outcomes": biased_labels.tolist(),
        },
    )
    assert status == 201 and body["points"] == len(unit_coords)
    yield client, gw
    server.stop()
    gw.close()


SPEC_DICT = {
    "regions": {"kind": "grid", "nx": 4, "ny": 4},
    "n_worlds": N_WORLDS,
    "seed": 7,
}


class TestHTTP:
    def test_audit_roundtrip_bit_identical(
        self, http, unit_coords, biased_labels
    ):
        client, _ = http
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": SPEC_DICT}
        )
        assert status == 200
        solo = AuditSession(unit_coords, biased_labels).run(
            AuditSpec.from_dict(SPEC_DICT)
        )
        assert json.dumps(body["report"], sort_keys=True) == (
            json.dumps(solo.to_dict(full=True), sort_keys=True)
        )

    def test_ticket_flow_and_429(self, http):
        client, _ = http
        tickets = []
        for seed in (1, 2):
            status, body, _ = client.post(
                "/audit",
                {
                    "dataset": "unit",
                    "spec": dict(SPEC_DICT, seed=seed),
                    "wait": False,
                },
            )
            assert status == 202
            tickets.append(body["ticket"])
        # Queue (size 2) now full of unredeemed tickets -> honest 429.
        status, body, headers = client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": dict(SPEC_DICT, seed=3),
                "wait": False,
            },
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["type"] == "GatewayFullError"
        # Poll without blocking, then redeem (which drives the run).
        status, body, _ = client.get(f"/tickets/{tickets[0]}?wait=0")
        assert status == 200 and body["done"] is False
        status, body, _ = client.get(f"/tickets/{tickets[0]}")
        assert status == 200 and body["done"] is True
        assert "report" in body
        # The freed slot admits the retried request.
        status, body, _ = client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": dict(SPEC_DICT, seed=3),
                "wait": False,
            },
        )
        assert status == 202

    def test_sync_audit_timeout_answers_ticket(
        self, http, unit_coords, biased_labels
    ):
        client, gw = http
        # Another request's gather holds the service past the timeout.
        with gw.service("unit")._gather_lock:
            status, body, _ = client.post(
                "/audit",
                {"dataset": "unit", "spec": SPEC_DICT, "timeout": 0.05},
            )
            assert status == 202
            assert body["done"] is False
            assert body["dataset"] == "unit"
            ticket = body["ticket"]
            status, body, _ = client.get(f"/tickets/{ticket}?wait=0.05")
            assert status == 200
            assert body == {"ticket": ticket, "done": False}
        status, body, _ = client.get(f"/tickets/{ticket}")
        assert status == 200 and body["done"] is True
        solo = AuditSession(unit_coords, biased_labels).run(
            AuditSpec.from_dict(SPEC_DICT)
        )
        assert json.dumps(body["report"], sort_keys=True) == (
            json.dumps(solo.to_dict(full=True), sort_keys=True)
        )

    def test_batch_endpoint(self, http):
        client, _ = http
        status, body, _ = client.post(
            "/batch",
            {
                "dataset": "unit",
                "specs": [SPEC_DICT, dict(SPEC_DICT, seed=8)],
            },
        )
        assert status == 200
        assert len(body["reports"]) == 2

    def test_datasets_and_stats_and_health(self, http):
        client, gw = http
        status, body, _ = client.get("/datasets")
        assert status == 200
        assert body["datasets"][0]["name"] == "unit"
        assert (
            body["datasets"][0]["fingerprint"]
            == gw.datasets()[0]["fingerprint"]
        )
        status, body, _ = client.get("/stats")
        assert status == 200 and body["queue_size"] == 2
        status, body, _ = client.get("/healthz")
        assert status == 200 and body["ok"] is True

    def test_error_mapping(self, http):
        client, _ = http
        status, body, _ = client.post(
            "/audit", {"dataset": "ghost", "spec": SPEC_DICT}
        )
        assert status == 404
        assert body["type"] == "UnknownDatasetError"
        status, body, _ = client.get("/tickets/t-424242")
        assert status == 404
        status, body, _ = client.get("/nope")
        assert status == 404
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": {"n_worlds": -1}}
        )
        assert status == 400

    def test_non_binary_outcomes_are_400_naming_the_field(
        self, http, unit_coords
    ):
        client, _ = http
        status, _, _ = client.post(
            "/datasets",
            {
                "name": "scores",
                "coords": unit_coords.tolist(),
                "outcomes": [0.25] * len(unit_coords),
            },
        )
        assert status == 201
        status, body, _ = client.post(
            "/audit", {"dataset": "scores", "spec": SPEC_DICT}
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith("outcomes: ")

    def test_fractional_poisson_counts_are_400_naming_the_field(
        self, http, unit_coords
    ):
        client, _ = http
        n = len(unit_coords)
        status, _, _ = client.post(
            "/datasets",
            {
                "name": "fractional",
                "coords": unit_coords.tolist(),
                "outcomes": [0.3] * n,
                "forecast": [1.0] * n,
            },
        )
        assert status == 201
        status, body, _ = client.post(
            "/audit",
            {"dataset": "fractional",
             "spec": {**SPEC_DICT, "family": "poisson"}},
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith("outcomes: ")

    def test_class_count_above_points_is_400_naming_the_field(
        self, http, unit_coords, biased_labels
    ):
        client, _ = http
        status, _, _ = client.post(
            "/datasets",
            {
                "name": "classes",
                "coords": unit_coords.tolist(),
                "outcomes": biased_labels.tolist(),
                "n_classes": 2**64,
            },
        )
        assert status == 201
        status, body, _ = client.post(
            "/audit",
            {"dataset": "classes",
             "spec": {**SPEC_DICT, "family": "multinomial"}},
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith("n_classes: ")

    @pytest.mark.parametrize("value", [2.7, True, "7"])
    def test_non_integer_n_worlds_is_400(self, http, value):
        client, _ = http
        status, body, _ = client.post(
            "/audit",
            {"dataset": "unit", "spec": {**SPEC_DICT, "n_worlds": value}},
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith("n_worlds: expected an integer")

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("alpha", {"alpha": None}),
            ("family", {"family": ["x"]}),
            ("regions.sides", {"regions": {**SPEC_DICT["regions"], "sides": 5}}),
            (
                "regions.radii",
                {"regions": {"kind": "circles", "n_centers": 4,
                             "radii": [1e200]}},
            ),
        ],
    )
    def test_malformed_field_is_400_naming_it(self, http, field, overrides):
        client, _ = http
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": {**SPEC_DICT, **overrides}}
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith(f"{field}: ")

    def test_too_many_centres_is_400_naming_the_field(
        self, http, unit_coords
    ):
        client, _ = http
        n = len(unit_coords)
        spec = {**SPEC_DICT, "regions": {"kind": "squares",
                                         "n_centers": n + 1}}
        status, body, _ = client.post(
            "/audit", {"dataset": "unit", "spec": spec}
        )
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"] == (
            f"regions.n_centers: {n + 1} centres need at least as many "
            f"points, but the slice has {n}"
        )

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_bad_content_length_is_400_and_closes(self, http, length):
        client, _ = http
        host, port = client.url.split("//")[1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            # A pipelined second request must never be parsed out of
            # the unread body: the connection closes after the 400.
            sock.sendall(
                b"POST /audit HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            # A hang surfaces here as socket.timeout, not a pass; the
            # server closes the connection after its 400.
            raw = b""
            while chunk := sock.recv(4096):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        payload = json.loads(body)  # one JSON answer, nothing after it
        assert payload["type"] == "ValueError"
        assert payload["error"].startswith("Content-Length:")
        assert repr(length) in payload["error"]

    def test_oversized_content_length_is_413_unread_and_closes(
        self, http
    ):
        client, _ = http
        host, port = client.url.split("//")[1].split(":")
        length = MAX_BODY_BYTES * 1000
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            # No body follows the headers: a server that tried to read
            # it would still be waiting at the socket timeout.
            sock.sendall(
                b"POST /datasets HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(length).encode() + b"\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(4096):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        payload = json.loads(body)  # one JSON answer, nothing after it
        assert payload["type"] == "RequestTooLargeError"
        assert payload["error"].startswith("Content-Length:")
        assert str(length) in payload["error"]

    def test_body_cap_refuses_only_longer_bodies(self, http, monkeypatch):
        client, _ = http
        size = len(json.dumps({"name": "x"}).encode("utf-8"))
        monkeypatch.setattr(repro.gateway, "MAX_BODY_BYTES", size)
        status, body, _ = client.post("/datasets", {"name": "x"})
        assert status == 400  # read and parsed: the next check fails
        assert body["error"] == "coords: missing from the request body"
        monkeypatch.setattr(repro.gateway, "MAX_BODY_BYTES", size - 1)
        status, body, _ = client.post("/datasets", {"name": "x"})
        assert status == 413
        assert body["type"] == "RequestTooLargeError"

    def test_register_rejects_non_finite_coords(
        self, http, unit_coords, biased_labels
    ):
        client, gw = http
        coords = unit_coords.tolist()
        coords[5][0] = float("nan")  # json.dumps writes a NaN token
        status, body, _ = client.post(
            "/datasets",
            {
                "name": "bad",
                "coords": coords,
                "outcomes": biased_labels.tolist(),
            },
        )
        assert status == 400
        assert "coords" in body["error"]
        assert [d["name"] for d in gw.datasets()] == ["unit"]

    @pytest.mark.parametrize("field", ["coords", "outcomes"])
    def test_register_rejects_unconvertible_arrays(
        self, http, unit_coords, biased_labels, field
    ):
        client, gw = http
        payload = {
            "name": "bad",
            "coords": unit_coords.tolist(),
            "outcomes": biased_labels.tolist(),
        }
        if field == "coords":
            payload["coords"] = {}
        else:
            payload["outcomes"][0] = None
        status, body, _ = client.post("/datasets", payload)
        assert status == 400
        assert body["type"] == "ValueError"
        assert body["error"].startswith(f"{field}: ")
        assert [d["name"] for d in gw.datasets()] == ["unit"]

    @pytest.mark.parametrize("field", ["outcomes", "y_true"])
    def test_register_rejects_mismatched_lengths(
        self, http, unit_coords, biased_labels, field
    ):
        client, gw = http
        labels = biased_labels.tolist()
        payload = {
            "name": "bad",
            "coords": unit_coords.tolist(),
            "outcomes": labels,
            field: labels[:-1],
        }
        status, body, _ = client.post("/datasets", payload)
        assert status == 400
        assert body["error"].startswith(
            f"{field}: length does not match coords"
        )
        assert [d["name"] for d in gw.datasets()] == ["unit"]

    @pytest.mark.parametrize("value", ["3", 2.7, True, 0, -1])
    def test_register_rejects_bad_n_classes(
        self, http, unit_coords, biased_labels, value
    ):
        client, gw = http
        status, body, _ = client.post(
            "/datasets",
            {
                "name": "bad",
                "coords": unit_coords.tolist(),
                "outcomes": biased_labels.tolist(),
                "n_classes": value,
            },
        )
        assert status == 400
        assert body["error"].startswith("n_classes: ")
        assert [d["name"] for d in gw.datasets()] == ["unit"]

    @pytest.mark.parametrize(
        "path, payload, field",
        [
            ("/audit", {"dataset": "unit"}, "spec"),
            ("/audit", {"spec": SPEC_DICT}, "dataset"),
            ("/batch", {"dataset": "unit"}, "specs"),
            ("/batch", {"specs": [SPEC_DICT]}, "dataset"),
            ("/datasets", {"coords": [[0, 0]], "outcomes": [1]}, "name"),
            ("/datasets", {"name": "d", "outcomes": [1]}, "coords"),
            ("/datasets", {"name": "d", "coords": [[0, 0]]}, "outcomes"),
        ],
    )
    def test_missing_body_field_is_400_naming_it(
        self, http, path, payload, field
    ):
        client, _ = http
        status, body, _ = client.post(path, payload)
        assert status == 400
        assert body == {
            "error": f"{field}: missing from the request body",
            "type": "ValueError",
        }

    @pytest.mark.parametrize(
        "value", ["x", -1, True, [1], float("inf"), float("nan")]
    )
    def test_bad_timeout_is_400(self, http, value):
        client, gw = http
        status, body, _ = client.post(
            "/audit",
            {"dataset": "unit", "spec": SPEC_DICT, "timeout": value},
        )
        assert status == 400
        assert body["error"].startswith(
            "timeout: expected null or a finite number >= 0"
        )
        assert gw.stats()["submitted"] == 0

    @pytest.mark.parametrize("value", ["x", "-1", "inf", "nan", "1e400"])
    def test_bad_wait_is_400(self, http, value):
        client, _ = http
        _, body, _ = client.post(
            "/audit",
            {"dataset": "unit", "spec": SPEC_DICT, "wait": False},
        )
        status, body, _ = client.get(
            f"/tickets/{body['ticket']}?wait={value}"
        )
        assert status == 400
        assert body["error"].startswith(
            "wait: expected null or a finite number >= 0"
        )

    def test_unknown_tenant_accounting(self, http):
        client, gw = http
        client.post(
            "/audit",
            {
                "dataset": "unit",
                "spec": SPEC_DICT,
                "tenant": "acme",
            },
        )
        assert gw.stats()["tenants"]["acme"]["completed"] == 1


class TestNoFork:
    def test_threaded_workers_never_fork_inside_http_server(
        self, monkeypatch, unit_coords, biased_classes
    ):
        """workers=2 over real HTTP runs its chunks on threads: with
        os.fork disabled every report still equals its solo serial
        run, byte for byte."""
        from repro import engine

        # A 3-class square scan draws a points pass of 600 x 3 entries
        # per world, so its 49 worlds span two chunks, enough for a
        # pool of two.
        base = {
            "regions": RegionSpec.squares(8, sides=(0.2, 0.35)).to_dict(),
            "family": "multinomial",
            "n_worlds": N_WORLDS,
        }
        solo = AuditSession(
            unit_coords, biased_classes, n_classes=3, workers=1
        )
        resolved = solo.resolve(AuditSpec.from_dict(base))
        assert not resolved.member.disjoint
        assert len(engine.MonteCarloEngine.chunk_layout(
            resolved.kernel.chunk_points, N_WORLDS
        )) == 2

        def no_fork():
            raise AssertionError("os.fork called inside the HTTP server")

        pools: list = []

        class PoolSpy(engine.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", PoolSpy)
        gw = AuditGateway(queue_size=8, workers=2)
        server = GatewayHTTPServer(gw, port=0)
        server.start()
        try:
            client = _Client(server.url)
            status, _, _ = client.post(
                "/datasets",
                {
                    "name": "unit",
                    "coords": unit_coords.tolist(),
                    "outcomes": biased_classes.tolist(),
                    "n_classes": 3,
                },
            )
            assert status == 201
            for seed in (7, 8):
                spec = dict(base, seed=seed)
                status, body, _ = client.post(
                    "/audit", {"dataset": "unit", "spec": spec}
                )
                assert status == 200
                expected = solo.run(AuditSpec.from_dict(spec))
                assert json.dumps(body["report"], sort_keys=True) == (
                    json.dumps(expected.to_dict(full=True), sort_keys=True)
                )
        finally:
            server.stop()
            gw.close()
        if len(os.sched_getaffinity(0)) >= 2:
            assert pools and all(n == 2 for n in pools)


class TestJournalPath:
    """Every gateway journals; a settled ticket is its journal row."""

    def test_inflight_ticket_never_expires(self, unit_coords, biased_labels):
        # More settles than the old ticket table held must not evict a
        # ticket that is still in flight on another dataset.
        gw = AuditGateway(queue_size=64)
        gw.register("x", unit_coords, biased_labels)
        gw.register("y", unit_coords[:300], biased_labels[:300])
        try:
            pending = gw.submit("x", _spec(seed=1))
            for _ in range(256):
                gw.run("y", _spec(seed=2))
            assert gw.stats()["queue_depth"] == 1
            assert gw.ticket(pending.id) is pending
            assert _payload(pending.result()) == _payload(
                gw.run("x", _spec(seed=1))
            )
        finally:
            gw.close()

    @pytest.mark.parametrize("durable", [False, True])
    def test_settled_rows_capped_only_in_memory(
        self, tmp_path, unit_coords, biased_labels, durable
    ):
        gw = AuditGateway(
            queue_size=64, store=tmp_path / "j.sqlite" if durable else None
        )
        gw.register("x", unit_coords, biased_labels)
        gw.register("y", unit_coords[:300], biased_labels[:300])
        cap = 256  # max(4 * queue_size, 256)
        try:
            pending = gw.submit("x", _spec(seed=1))
            ids = []
            for _ in range(cap + 20):
                ticket = gw.submit("y", _spec(seed=2))
                ticket.result()
                ids.append(ticket.id)
            stats = gw.store.stats()
            assert stats["submitted"] == 1  # the in-flight ticket
            assert stats["done"] == (cap + 20 if durable else cap)
            assert gw.ticket(ids[-1]).result_json() == ticket.result_json()
            assert gw.ticket(pending.id) is pending
            if durable:
                assert gw.ticket(ids[0]).done()
            else:
                with pytest.raises(KeyError):
                    gw.ticket(ids[0])
            pending.result()
            assert gw.ticket(pending.id).done()
        finally:
            gw.close()

    def test_settled_ticket_is_its_journal_row(self, gateway):
        ticket = gateway.submit("unit", _spec(seed=3))
        report = ticket.result()
        stored = gateway.ticket(ticket.id)
        assert isinstance(stored, StoredTicket)
        assert stored.result_json() == ticket.result_json()
        assert stored.result_json() == report.to_json() == _payload(report)
        assert gateway.store.get(ticket.id).report == report.to_json()

    def test_lookup_racing_a_settle_never_sees_an_unsettled_row(
        self, gateway
    ):
        ids: list = []
        unsettled: list = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                for tid in list(ids):
                    found = gateway.ticket(tid)
                    if isinstance(found, StoredTicket) and not found.done():
                        unsettled.append(tid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        poller = threading.Thread(target=poll)
        poller.start()
        try:
            for seed in range(1, 41):
                ticket = gateway.submit("unit", _spec(seed=seed, n_worlds=19))
                ids.append(ticket.id)
                ticket.result()
        finally:
            stop.set()
            poller.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not poller.is_alive()
        assert unsettled == []

    def test_failed_settle_write_still_serves_then_503s(self, gateway):
        ticket = gateway.submit("unit", _spec(seed=4))
        install_faults("ticketstore.write:p=1.0")
        report = ticket.result()  # the waiter still gets its report
        assert ticket.result_json() == report.to_json()
        assert gateway.stats()["store"]["write_errors"] == 1
        clear_faults()
        # The row stayed unsettled: a typed 503 that names the failed
        # write and the restart that replays it (no recovery runs in a
        # live process, so "retry" alone would never succeed).
        with pytest.raises(TicketRecoveryError) as err:
            gateway.ticket(ticket.id).result()
        assert err.value.http_status == 503
        assert "settle write failed" in str(err.value)
        assert "replayed when the gateway next restarts" in str(err.value)


def _raw(url: str, method: str = "GET", payload=None):
    """``(status, body text)`` of one request, bytes untouched."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, resp.read().decode("utf-8")


@pytest.mark.parametrize("durable", [False, True])
def test_http_bytes_are_the_journal_bytes(
    tmp_path, unit_coords, biased_labels, durable
):
    path = tmp_path / "j.sqlite" if durable else None
    gw = AuditGateway(queue_size=8, store=path)
    gw.register("unit", unit_coords, biased_labels)
    server = GatewayHTTPServer(gw, port=0)
    server.start()
    try:
        url = server.url
        status, body = _raw(
            f"{url}/audit", "POST", {"dataset": "unit", "spec": SPEC_DICT}
        )
        assert status == 200
        sync_id = json.loads(body)["ticket"]
        assert gw.store.get(sync_id).report in body

        status, body = _raw(
            f"{url}/batch",
            "POST",
            {"dataset": "unit", "specs": [SPEC_DICT, dict(SPEC_DICT, seed=8)]},
        )
        assert status == 200
        for record in gw.store.tickets()[-2:]:
            assert record.report in body

        status, body = _raw(
            f"{url}/audit",
            "POST",
            {"dataset": "unit", "spec": dict(SPEC_DICT, seed=9), "wait": False},
        )
        assert status == 202
        tid = json.loads(body)["ticket"]
        _, live = _raw(f"{url}/tickets/{tid}")  # redeemed in flight
        _, settled = _raw(f"{url}/tickets/{tid}")  # from the journal row
        text = gw.store.get(tid).report
        assert text in live and text in settled
    finally:
        server.stop()
        gw.close()
    if not durable:
        return
    restarted = AuditGateway(queue_size=8, store=path)
    server = GatewayHTTPServer(restarted, port=0)
    server.start()
    try:
        for ticket_id in (sync_id, tid):
            _, body = _raw(f"{server.url}/tickets/{ticket_id}")
            assert restarted.store.get(ticket_id).report in body
    finally:
        server.stop()
        restarted.close()
