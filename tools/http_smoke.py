"""End-to-end smoke test of ``python -m repro serve`` (CI gate).

Boots the gateway as a real subprocess, then drives the full client
lifecycle over HTTP exactly as a tenant would:

1. register a dataset (``POST /datasets``) and list it back;
2. a synchronous audit (``POST /audit``) — the report must be
   bit-identical to an in-process :class:`repro.api.AuditSession` run
   of the same spec;
3. the ticketed flow: ``wait=false`` submits until the queue is full,
   the next submit must be refused with **429 + Retry-After**, a
   ``wait=0`` poll must report not-done, redeeming the tickets must
   free the queue;
4. a fused batch (``POST /batch``) and a ``GET /stats`` sanity check;
5. SIGTERM — the server must drain and exit 0;
6. restart-and-refetch: a second server over the same ``--store``
   journal must serve a pre-restart ticket byte-identically.

``--no-store`` boots the server without ``--store``, so steps 1–5 run
over the gateway's in-memory journal; step 6 needs a durable file and
is skipped.

Every subprocess is killed in a ``finally`` block — a failed
assertion can never leave an orphan server holding the CI port — and
the announce-line read is bounded, so a server that hangs on boot
fails the smoke test instead of wedging it.

Exit code 0 means every step held.  Run it from the repo root::

    python tools/http_smoke.py [--no-store]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

N_POINTS = 800
N_WORLDS = 64
QUEUE_SIZE = 3
ANNOUNCE_TIMEOUT = 90.0
SPEC = {
    "regions": {"kind": "grid", "nx": 4, "ny": 4},
    "n_worlds": N_WORLDS,
    "seed": 5,
}


def request(url: str, method: str = "GET", payload=None, timeout=60):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"SMOKE FAIL: {message}")


def read_announce(proc, timeout: float = ANNOUNCE_TIMEOUT) -> str:
    """Read the ``listening on URL`` line with a hard deadline, so a
    server that wedges on boot fails fast instead of blocking the
    smoke test on an unbounded ``readline()``."""
    box = {}

    def _reader():
        box["line"] = proc.stdout.readline().strip()

    thread = threading.Thread(target=_reader, daemon=True)
    thread.start()
    thread.join(timeout)
    announce = box.get("line", "")
    expect(
        announce.startswith("listening on http://"),
        f"bad/late announce line: {announce!r}",
    )
    return announce.split()[-1]


def start_server(procs: list, data_path: str, *extra_args: str):
    """Boot one serve subprocess, tracked in ``procs`` for cleanup."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--data", f"city={data_path}",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    procs.append(proc)
    return proc, read_announce(proc)


def stop_server(proc) -> str:
    """SIGTERM the server, expect a clean drain; returns stderr."""
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    expect(
        proc.returncode == 0,
        f"exit code {proc.returncode}; stderr: {err[-500:]}",
    )
    expect("drained" in err, f"no drain notice: {err[-200:]}")
    return err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="HTTP gateway smoke test")
    parser.add_argument(
        "--no-store", action="store_true",
        help="serve from the in-memory journal; skip the restart step",
    )
    args = parser.parse_args(argv)
    rng = np.random.default_rng(11)
    coords = rng.random((N_POINTS, 2))
    outcomes = (rng.random(N_POINTS) < 0.5).astype(np.int8)

    procs: list = []
    with tempfile.TemporaryDirectory() as tmp:
        data_path = os.path.join(tmp, "city.npz")
        store_path = os.path.join(tmp, "tickets.sqlite")
        np.savez(data_path, coords=coords, outcomes=outcomes)
        try:
            store_args = [] if args.no_store else ["--store", store_path]
            proc, url = start_server(
                procs, data_path,
                "--queue-size", str(QUEUE_SIZE),
                *store_args,
            )
            print(f"[smoke] server up at {url}")

            # 1. register a second dataset + list both.
            status, body, _ = request(
                f"{url}/datasets",
                "POST",
                {
                    "name": "extra",
                    "coords": coords[:100].tolist(),
                    "outcomes": outcomes[:100].tolist(),
                },
            )
            expect(status == 201, f"register: {status} {body}")
            status, body, _ = request(f"{url}/datasets")
            names = [d["name"] for d in body["datasets"]]
            expect(
                sorted(names) == ["city", "extra"],
                f"datasets: {names}",
            )
            print("[smoke] datasets registered and listed")

            # 2. synchronous audit, bit-identical to in-process.
            status, body, _ = request(
                f"{url}/audit",
                "POST",
                {"dataset": "city", "spec": SPEC},
            )
            expect(status == 200, f"audit: {status} {body}")
            from repro.api import AuditSession
            from repro.spec import AuditSpec

            solo = AuditSession(coords, outcomes).run(
                AuditSpec.from_dict(SPEC)
            )
            expect(
                json.dumps(body["report"], sort_keys=True)
                == json.dumps(solo.to_dict(full=True), sort_keys=True),
                "HTTP report differs from in-process run",
            )
            saved_ticket = body["ticket"]
            saved_payload = json.dumps(body["report"], sort_keys=True)
            print("[smoke] synchronous audit bit-identical")

            # 3. ticketed flow + honest back-pressure.
            tickets = []
            for i in range(QUEUE_SIZE):
                status, body, _ = request(
                    f"{url}/audit",
                    "POST",
                    {
                        "dataset": "city",
                        "spec": dict(SPEC, seed=50 + i),
                        "wait": False,
                    },
                )
                expect(status == 202, f"submit: {status} {body}")
                tickets.append(body["ticket"])
            status, body, headers = request(
                f"{url}/audit",
                "POST",
                {
                    "dataset": "city",
                    "spec": dict(SPEC, seed=99),
                    "wait": False,
                },
            )
            expect(status == 429, f"expected 429, got {status} {body}")
            expect(
                int(headers.get("Retry-After", 0)) >= 1,
                f"missing Retry-After: {headers}",
            )
            print(
                "[smoke] queue-full 429 observed "
                f"(Retry-After: {headers['Retry-After']})"
            )
            status, body, _ = request(
                f"{url}/tickets/{tickets[0]}?wait=0"
            )
            expect(
                status == 200 and body["done"] is False,
                f"poll: {status} {body}",
            )
            for ticket in tickets:
                status, body, _ = request(f"{url}/tickets/{ticket}")
                expect(
                    status == 200 and body["done"],
                    f"redeem {ticket}: {status}",
                )
            status, body, _ = request(
                f"{url}/audit",
                "POST",
                {
                    "dataset": "city",
                    "spec": dict(SPEC, seed=99),
                    "wait": False,
                },
            )
            expect(status == 202, f"retry after drain: {status}")
            request(f"{url}/tickets/{body['ticket']}")
            print("[smoke] ticket poll/redeem + retry-after-drain OK")

            # 4. fused batch + stats sanity.
            status, body, _ = request(
                f"{url}/batch",
                "POST",
                {
                    "dataset": "city",
                    "specs": [SPEC, dict(SPEC, seed=6)],
                    "tenant": "batcher",
                },
            )
            expect(
                status == 200 and len(body["reports"]) == 2,
                f"batch: {status}",
            )
            status, stats, _ = request(f"{url}/stats")
            expect(status == 200, f"stats: {status}")
            expect(
                stats["rejected_full"] >= 1,
                f"stats lost the 429: {stats['rejected_full']}",
            )
            expect(
                stats["queue_peak"] >= QUEUE_SIZE,
                f"queue_peak: {stats['queue_peak']}",
            )
            expect(
                "batcher" in stats["tenants"],
                f"tenants: {list(stats['tenants'])}",
            )
            expect(
                stats["store"] is not None
                and stats["store"]["done"] >= 1,
                f"store stats: {stats.get('store')}",
            )
            print(
                "[smoke] stats: "
                f"completed={stats['completed']} "
                f"rejected_full={stats['rejected_full']} "
                f"queue_peak={stats['queue_peak']} "
                f"journalled={stats['store']['tickets']}"
            )

            # 5. graceful drain on SIGTERM.
            stop_server(proc)
            print("[smoke] SIGTERM drain clean")
            if args.no_store:
                print("[smoke] in-memory journal — all checks passed")
                return 0

            # 6. restart-and-refetch: the journal must serve a
            # pre-restart ticket byte-identically.
            proc2, url2 = start_server(
                procs, data_path, "--store", store_path
            )
            status, body, _ = request(
                f"{url2}/tickets/{saved_ticket}"
            )
            expect(
                status == 200 and body["done"],
                f"refetch after restart: {status} {body}",
            )
            expect(
                json.dumps(body["report"], sort_keys=True)
                == saved_payload,
                "post-restart report differs from pre-restart one",
            )
            stop_server(proc2)
            print(
                "[smoke] restart-and-refetch byte-identical — "
                "all checks passed"
            )
            return 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
