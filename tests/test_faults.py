"""Fault-injection layer tests plus the seeded chaos/recovery suite.

Three layers, increasingly end-to-end:

* unit tests for :mod:`repro.faults` itself — clause parsing, seeded
  determinism (two identical runs fire on exactly the same hits),
  ``at``/``times`` semantics, strict site validation;
* property tests that any *single* injected fault at any wired site
  surfaces as a typed error — never a hang, never a wrong report —
  and that the stack keeps serving afterwards;
* the chaos suite (``-m faults``): kill a real ``python -m repro
  serve --store`` subprocess with ``os._exit`` at a seeded journalled
  point, restart it against the same sqlite store, and assert every
  ticket fetched after the restart is byte-identical to the
  uninterrupted golden run (or a typed error) and that no journal row
  is left unsettled.

Set ``CHAOS_SEED`` to pin the chaos crash point to one seed (the CI
matrix does); set ``CHAOS_ARTIFACT_DIR`` to keep the sqlite journal
of a failing run for upload.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.faults import (
    FailPoint,
    FaultInjected,
    FaultRegistry,
    active_faults,
    clear_faults,
    fault_point,
    install_faults,
)
from repro.gateway import AuditGateway
from repro.spec import AuditSpec, RegionSpec
from repro.ticketstore import TicketStore, TicketStoreError

from tests.conftest import N_WORLDS

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fixed chaos seeds (the CI matrix runs one per job via CHAOS_SEED).
CHAOS_SEEDS = (
    [int(os.environ["CHAOS_SEED"])]
    if os.environ.get("CHAOS_SEED")
    else [101, 202, 303]
)


def _spec(seed=1, nx=4, ny=4, n_worlds=N_WORLDS, **kw):
    return AuditSpec(
        regions=RegionSpec.grid(nx, ny),
        n_worlds=n_worlds,
        seed=seed,
        **kw,
    )


def _payload(report) -> str:
    return json.dumps(report.to_dict(full=True), sort_keys=True)


# -- FailPoint / FaultRegistry unit tests ----------------------------


class TestFailPoint:
    def test_parse_roundtrip(self):
        point = FailPoint.parse(
            "serve.run_group:p=0.25:seed=9:times=2:action=sleep"
            ":delay=0.01"
        )
        assert point.site == "serve.run_group"
        assert point.p == 0.25
        assert point.seed == 9
        assert point.times == 2
        assert point.action == "sleep"
        assert point.delay == 0.01
        assert FailPoint.parse(point.describe()) == point

    def test_parse_rejects_bad_option(self):
        with pytest.raises(ValueError, match="bad option"):
            FailPoint.parse("serve.run_group:nope=1")
        with pytest.raises(ValueError, match="bad option"):
            FailPoint.parse("serve.run_group:at")

    def test_validation(self):
        with pytest.raises(ValueError, match="action"):
            FailPoint(site="x", action="explode")
        with pytest.raises(ValueError, match="p:"):
            FailPoint(site="x", p=1.5)
        with pytest.raises(ValueError, match="at:"):
            FailPoint(site="x", at=0)
        with pytest.raises(ValueError, match="times:"):
            FailPoint(site="x", times=0)
        with pytest.raises(ValueError, match="delay:"):
            FailPoint(site="x", delay=-1.0)

    def test_install_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            install_faults("gateway.submitt:at=1")
        # non-strict arms scratch sites for tests
        registry = install_faults(
            [FailPoint(site="scratch.site")], strict=False
        )
        assert registry.sites() == ["scratch.site"]

    def test_install_rejects_duplicate_site(self):
        with pytest.raises(ValueError, match="duplicate"):
            install_faults(
                "gateway.submit:at=1,gateway.submit:at=2"
            )

    def test_env_syntax_multi_clause(self):
        registry = install_faults(
            "gateway.submit:action=sleep:delay=0,"
            "serve.run_group:at=3"
        )
        assert registry.sites() == [
            "gateway.submit",
            "serve.run_group",
        ]


class TestFaultRegistry:
    def _fire_pattern(self, point, hits=200):
        registry = FaultRegistry([point])
        fired = []
        for i in range(hits):
            try:
                registry.hit(point.site)
            except FaultInjected:
                fired.append(i)
        return fired

    def test_seeded_firing_is_deterministic(self):
        point = FailPoint(site="gateway.submit", p=0.3, seed=42)
        first = self._fire_pattern(point)
        second = self._fire_pattern(point)
        assert first == second
        assert 20 < len(first) < 100  # ~30% of 200

    def test_different_seeds_differ(self):
        a = self._fire_pattern(
            FailPoint(site="gateway.submit", p=0.3, seed=1)
        )
        b = self._fire_pattern(
            FailPoint(site="gateway.submit", p=0.3, seed=2)
        )
        assert a != b

    def test_at_fires_exactly_once(self):
        fired = self._fire_pattern(
            FailPoint(site="gateway.submit", at=7)
        )
        assert fired == [6]  # the 7th hit, 0-indexed

    def test_times_caps_fires(self):
        fired = self._fire_pattern(
            FailPoint(site="gateway.submit", p=1.0, times=3)
        )
        assert fired == [0, 1, 2]

    def test_unarmed_site_never_fires(self):
        registry = FaultRegistry(
            [FailPoint(site="gateway.submit", at=1)]
        )
        for _ in range(5):
            registry.hit("serve.run_group")  # not armed: no-op
        assert registry.stats() == {
            "gateway.submit": {
                "hits": 0,
                "fired": 0,
                "rule": "gateway.submit:at=1",
            }
        }

    def test_stats_count_hits_and_fires(self):
        point = FailPoint(site="gateway.submit", at=2)
        registry = FaultRegistry([point])
        registry.hit("gateway.submit")
        with pytest.raises(FaultInjected) as err:
            registry.hit("gateway.submit")
        assert err.value.site == "gateway.submit"
        registry.hit("gateway.submit")
        stats = registry.stats()["gateway.submit"]
        assert stats["hits"] == 3
        assert stats["fired"] == 1

    def test_disabled_fault_point_is_noop(self):
        clear_faults()
        assert active_faults() is None
        for _ in range(3):
            fault_point("gateway.submit")  # must not raise

    def test_install_and_clear(self):
        install_faults("gateway.submit:at=1")
        with pytest.raises(FaultInjected):
            fault_point("gateway.submit")
        clear_faults()
        fault_point("gateway.submit")


# -- single-fault property tests -------------------------------------
#
# Any single injected fault must surface as a typed error (never a
# hang, never a wrong report) and leave the stack serving.


class TestSingleFaultTyped:
    @pytest.fixture()
    def gateway(self, tmp_path, unit_coords, biased_labels):
        clear_faults()
        gw = AuditGateway(queue_size=16, store=tmp_path / "j.sqlite")
        gw.register("city", unit_coords, biased_labels)
        yield gw
        clear_faults()
        gw.close()

    def test_submit_fault_is_typed_and_transient(self, gateway):
        install_faults("gateway.submit:at=1")
        with pytest.raises(FaultInjected):
            gateway.submit("city", _spec())
        # the very next submit (hit 2) is admitted and completes
        report = gateway.submit("city", _spec()).result()
        assert 0.0 <= report.p_value <= 1.0

    def test_group_death_fails_ticket_typed(self, gateway):
        install_faults("serve.run_group:at=1")
        ticket = gateway.submit("city", _spec())
        with pytest.raises(FaultInjected):
            ticket.result()
        # journalled as a typed failure, not lost
        record = gateway.store.get(ticket.id)
        assert record.state == "failed"
        assert record.error_type == "FaultInjected"
        # the gateway keeps serving
        clear_faults()
        assert gateway.submit("city", _spec()).result() is not None

    def test_store_write_fault_is_typed(self, gateway):
        install_faults("ticketstore.write:p=1.0")
        with pytest.raises(TicketStoreError):
            gateway.store.record_submit("d", "t", "{}", "fp")
        clear_faults()
        assert gateway.store.record_submit("d", "t", "{}", "fp")

    def test_stall_never_changes_reports(self, gateway):
        golden = _payload(gateway.submit("city", _spec()).result())
        install_faults(
            "gateway.submit:action=sleep:delay=0.001,"
            "serve.run_group:action=sleep:delay=0.001"
        )
        stalled = _payload(gateway.submit("city", _spec()).result())
        assert stalled == golden

    def test_store_fault_during_settle_degrades_not_poisons(
        self, gateway
    ):
        # Arm only the journal write that records the settle: the
        # report must still reach the client; only the journal entry
        # is lost (counted in write_errors).
        ticket = gateway.submit("city", _spec())
        install_faults("ticketstore.write:p=1.0")
        report = ticket.result()
        assert 0.0 <= report.p_value <= 1.0
        clear_faults()
        assert gateway.stats()["store"]["write_errors"] >= 1

    def test_settle_time_journal_fault_never_reaches_a_waiter(
        self, gateway
    ):
        # Both tickets resolve in the first redemption's gather; the
        # first settle write raises after its commit.  Neither waiter
        # sees the fault, and it is counted once.
        tickets = [gateway.submit("city", _spec(seed=s)) for s in (1, 2)]
        install_faults("ticketstore.after_write:at=1:action=raise")
        for ticket in tickets:
            assert 0.0 <= ticket.result().p_value <= 1.0
        clear_faults()
        assert gateway.stats()["store"]["write_errors"] == 1


# -- the chaos suite (pytest -m faults) ------------------------------


CHAOS_SPECS = [
    _spec(seed=11, nx=3, ny=3),
    _spec(seed=12, nx=4, ny=4),
    _spec(seed=13, nx=3, ny=4),
    _spec(seed=14, nx=4, ny=3),
]


@pytest.fixture(scope="module")
def chaos_arrays():
    rng = np.random.default_rng(7)
    coords = rng.random((400, 2))
    rates = np.where(coords[:, 0] < 0.3, 0.2, 0.6)
    labels = (rng.random(400) < rates).astype(np.int64)
    return coords, labels


@pytest.fixture(scope="module")
def chaos_npz(tmp_path_factory, chaos_arrays):
    coords, labels = chaos_arrays
    path = tmp_path_factory.mktemp("chaos") / "city.npz"
    np.savez(path, coords=coords, outcomes=labels)
    return path


@pytest.fixture(scope="module")
def golden_reports(chaos_arrays):
    """Per-spec payloads from an uninterrupted, storeless run."""
    coords, labels = chaos_arrays
    gw = AuditGateway(queue_size=16)
    try:
        gw.register("city", coords, labels)
        return [
            _payload(gw.submit("city", spec).result())
            for spec in CHAOS_SPECS
        ]
    finally:
        gw.close()


def _read_announce(proc, timeout=60.0):
    """Bounded read of the server's ``listening on URL`` line."""
    out = {}

    def _reader():
        out["line"] = proc.stdout.readline()

    thread = threading.Thread(target=_reader, daemon=True)
    thread.start()
    thread.join(timeout)
    line = out.get("line", b"")
    if not line.startswith(b"listening on "):
        proc.kill()
        raise AssertionError(
            f"server did not announce within {timeout}s "
            f"(got {line!r})"
        )
    return line.split()[-1].decode()


def _start_server(npz, store, log_path, faults_plan=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    if faults_plan:
        env["REPRO_FAULTS"] = faults_plan
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--data", f"city={npz}",
            "--store", str(store),
        ],
        stdout=subprocess.PIPE,
        stderr=open(log_path, "ab"),
        env=env,
        cwd=REPO_ROOT,
    )
    return proc, _read_announce(proc)


def _post_json(url, body, timeout=60.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _get_json(url, timeout=90.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


#: Errors a client sees when the server dies mid-conversation.
_CRASH_ERRORS = (
    urllib.error.URLError,
    ConnectionError,
    TimeoutError,
    json.JSONDecodeError,
)


@pytest.mark.faults
@pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
def test_kill_and_recover_bit_identity(
    chaos_seed, tmp_path, chaos_npz, golden_reports
):
    """Kill the server at a seeded journal write; restart on the same
    store; every ticket must come back byte-identical or typed."""
    store = tmp_path / "tickets.sqlite"
    log = tmp_path / "server.log"
    # A full run journals ~3 writes per spec (submit, settle, fetch);
    # a seeded point inside that range kills the server mid-run.  The
    # exit fires *after* the commit, so the journal is always
    # consistent — that is the crash window being tested.
    crash_at = random.Random(chaos_seed).randint(
        2, 3 * len(CHAOS_SPECS) - 2
    )
    plan = f"ticketstore.after_write:at={crash_at}:action=exit"
    proc, url = _start_server(chaos_npz, store, log, faults_plan=plan)
    tickets = {}  # ticket id -> spec index
    try:
        for i, spec in enumerate(CHAOS_SPECS):
            try:
                status, body = _post_json(
                    f"{url}/audit",
                    {
                        "dataset": "city",
                        "spec": spec.to_dict(),
                        "tenant": f"tenant-{i}",
                        "wait": False,
                    },
                )
            except _CRASH_ERRORS:
                break  # the server died mid-submission
            assert status == 202
            tickets[body["ticket"]] = i
        for ticket_id in list(tickets):
            try:
                status, body = _get_json(
                    f"{url}/tickets/{ticket_id}?wait=60"
                )
            except _CRASH_ERRORS:
                break  # the server died mid-redeem
            if status == 200 and body.get("done"):
                payload = json.dumps(
                    body["report"], sort_keys=True
                )
                assert payload == golden_reports[tickets[ticket_id]]
        proc.wait(timeout=120)

        # Restart against the same journal, no faults: recover() runs
        # on boot and replays every unsettled ticket.
        proc2, url2 = _start_server(chaos_npz, store, log)
        try:
            assert tickets, "no ticket survived submission"
            for ticket_id, index in tickets.items():
                status, body = _get_json(
                    f"{url2}/tickets/{ticket_id}?wait=60"
                )
                if status == 200:
                    assert body["done"]
                    payload = json.dumps(
                        body["report"], sort_keys=True
                    )
                    assert payload == golden_reports[index], (
                        f"ticket {ticket_id} (spec {index}) not "
                        f"byte-identical after recovery "
                        f"(seed {chaos_seed}, crash at write "
                        f"{crash_at})"
                    )
                else:
                    # acceptable only as a *typed* failure
                    assert body["type"] in (
                        "TicketFailedError",
                        "TicketRecoveryError",
                    ), body
        finally:
            proc2.terminate()
            proc2.wait(timeout=120)

        # No journal row may be left unsettled — recovery settles
        # everything it replays, one way or the other.
        with TicketStore(store) as reopened:
            assert reopened.unsettled() == []
            assert reopened.stats()["tickets"] >= len(tickets)
    except BaseException:
        artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
        if artifact_dir and store.exists():
            os.makedirs(artifact_dir, exist_ok=True)
            shutil.copy(
                store,
                Path(artifact_dir)
                / f"tickets-seed{chaos_seed}.sqlite",
            )
            if log.exists():
                shutil.copy(
                    log,
                    Path(artifact_dir)
                    / f"server-seed{chaos_seed}.log",
                )
        raise
    finally:
        for p in (proc,):
            if p.poll() is None:
                p.kill()
                p.wait(timeout=30)


@pytest.mark.faults
def test_worker_death_typed_over_http(tmp_path, chaos_npz):
    """A worker death mid-group surfaces to the HTTP client as a
    typed 500, is journalled as failed, and the server survives."""
    store = tmp_path / "tickets.sqlite"
    log = tmp_path / "server.log"
    proc, url = _start_server(
        chaos_npz, store, log,
        faults_plan="serve.run_group:at=1",
    )
    try:
        status, body = _post_json(
            f"{url}/audit",
            {
                "dataset": "city",
                "spec": CHAOS_SPECS[0].to_dict(),
                "wait": False,
            },
        )
        assert status == 202
        ticket_id = body["ticket"]
        status, body = _get_json(f"{url}/tickets/{ticket_id}?wait=60")
        assert status == 500
        assert body["type"] == "FaultInjected"
        # the fault was one-shot: the next audit completes normally
        status, body = _post_json(
            f"{url}/audit",
            {
                "dataset": "city",
                "spec": CHAOS_SPECS[1].to_dict(),
                "wait": True,
            },
        )
        assert status == 200
        assert "report" in body
    finally:
        proc.kill()
        proc.wait(timeout=30)
    with TicketStore(store) as reopened:
        assert reopened.tickets("failed")[0].error_type == (
            "FaultInjected"
        )
