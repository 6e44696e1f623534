"""The gateway-mixed workload: ``python -m repro serve`` as a
subprocess, driven over HTTP by a closed loop of two client threads.

Each burst sends one request per client (tenant ``tenant-0`` and
``tenant-1``) and waits for both, so the probe runs between bursts with
no request in flight.  Every client walks the same fixed six-step
cycle:

0. ``fresh``       -- a sync audit with a fresh seed;
1. ``repeat``      -- the same spec again, answered by the report cache;
2. ``multinomial`` -- a 3-class audit on the second dataset;
3. ``adaptive``    -- an adaptive-budget audit;
4. ``batch``       -- ``POST /batch`` of four grids that fuse into one
   group (same seed and world budget);
5. ``ticket``      -- a ``wait: false`` submit redeemed through
   ``GET /tickets/<id>``.

The admission queue (64) is far above the two requests in flight, so no
429 can occur.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import measure
import spans as spans_mod
from workloads import UNIT, Op, Workload, report_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CYCLE = ("fresh", "repeat", "multinomial", "adaptive", "batch", "ticket")
BATCH_GRIDS = (4, 6, 8, 12)
ANNOUNCE_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def group_members(pgid: int) -> list:
    """Pids of the live (not zombie) processes in process group
    ``pgid``, read from ``/proc``."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


def wait_group_gone(pgid: int, timeout: float = STOP_TIMEOUT) -> None:
    """Wait until process group ``pgid`` has no live process left; kill
    what remains after half of ``timeout``."""
    start = time.monotonic()
    killed = False
    while group_members(pgid):
        elapsed = time.monotonic() - start
        if elapsed > timeout:
            raise RuntimeError(f"process group {pgid} outlived its server")
        if not killed and elapsed > timeout / 2:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
        time.sleep(0.01)


class GatewayMixed(Workload):
    """Mixed tenant traffic against the HTTP gateway."""

    name = "gateway-mixed"
    in_process = False
    traced_ops = 8 * len(CYCLE)
    setups = 5
    clients = 2
    n_points = 20_000
    n_worlds = 64
    adaptive_worlds = 512

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        n = self.n_points
        self.bin_coords = self.rng.random((n, 2))
        corner = (self.bin_coords[:, 0] < 0.25) & (
            self.bin_coords[:, 1] < 0.25
        )
        self.bin_outcomes = (
            self.rng.random(n) < np.where(corner, 0.3, 0.5)
        ).astype(np.int8)
        self.cat_coords = self.rng.random((n, 2))
        corner = (self.cat_coords[:, 0] > 0.75) & (
            self.cat_coords[:, 1] > 0.75
        )
        probs = np.where(corner[:, None], [0.6, 0.2, 0.2], [0.34, 0.33, 0.33])
        u = self.rng.random(n)[:, None]
        edges = np.cumsum(probs, axis=1)[:, :-1]
        self.cat_labels = (u > edges).sum(axis=1).astype(np.int64)
        self.data_paths = {
            "bin": tmp / "bin.npz",
            "cat": tmp / "cat.npz",
        }
        np.savez(
            self.data_paths["bin"],
            coords=self.bin_coords,
            outcomes=self.bin_outcomes,
        )
        np.savez(
            self.data_paths["cat"],
            coords=self.cat_coords,
            outcomes=self.cat_labels,
        )
        self.traced = False
        self.proc = None
        self.url = None
        self.server_traces: list = []
        self.fresh: dict = {}
        self.first_batches: dict = {}
        self.first_fresh: dict = {}
        self.pool = ThreadPoolExecutor(
            max_workers=self.clients, thread_name_prefix="client"
        )

    # -- specs -----------------------------------------------------------

    def cycle_seed(self, cycle: int, client: int, salt: int = 0) -> int:
        rng = np.random.default_rng([self.seed, cycle, client, salt])
        return int(rng.integers(2**31))

    def grid_spec(self, cells: int, seed: int, **extra) -> dict:
        spec = {
            "regions": {
                "kind": "grid", "nx": cells, "ny": cells,
                "bounds": list(UNIT),
            },
            "n_worlds": self.n_worlds,
            "seed": seed,
        }
        spec.update(extra)
        return spec

    def plan(self, b: int, client: int) -> tuple:
        """``(step, method, path, payload)`` of a client's request."""
        cycle, step = divmod(b, len(CYCLE))
        kind = CYCLE[step]
        tenant = f"tenant-{client}"
        seed = self.cycle_seed(cycle, client)
        if kind in ("fresh", "repeat"):
            body = {"dataset": "bin", "spec": self.grid_spec(10, seed)}
        elif kind == "multinomial":
            body = {
                "dataset": "cat",
                "spec": self.grid_spec(
                    8, self.cycle_seed(cycle, client, 1),
                    family="multinomial",
                ),
            }
        elif kind == "adaptive":
            body = {
                "dataset": "bin",
                "spec": self.grid_spec(
                    10, self.cycle_seed(cycle, client, 2),
                    n_worlds=self.adaptive_worlds, budget="adaptive",
                ),
            }
        elif kind == "batch":
            batch_seed = self.cycle_seed(cycle, client, 3)
            body = {
                "dataset": "bin",
                "specs": [
                    self.grid_spec(g, batch_seed) for g in BATCH_GRIDS
                ],
            }
        else:
            body = {
                "dataset": "bin",
                "spec": self.grid_spec(12, self.cycle_seed(cycle, client, 4)),
                "wait": False,
            }
        body["tenant"] = tenant
        path = "/batch" if kind == "batch" else "/audit"
        return kind, path, body

    # -- HTTP ------------------------------------------------------------

    def request(self, path, payload=None, request_id=None):
        """One HTTP call; returns ``(status, body bytes, wall s)``."""
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Bench-Op"] = request_id
        req = urllib.request.Request(
            self.url + path, data=data, headers=headers,
            method="GET" if data is None else "POST",
        )
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as err:
            status, body = err.code, err.read()
        return status, body, time.perf_counter() - t0

    def _client_op(self, b: int, client: int) -> Op:
        op_id = f"o{b}c{client}"
        kind, path, body = self.plan(b, client)
        requests, bodies, statuses = {}, [], []
        try:
            rid = f"{op_id}/0"
            status, raw, wall = self.request(path, body, rid)
            requests[rid] = wall
            statuses.append(status)
            bodies.append(raw)
            if kind == "ticket" and status == 202:
                ticket = json.loads(raw)["ticket"]
                rid = f"{op_id}/1"
                status, raw, wall = self.request(
                    f"/tickets/{ticket}", None, rid
                )
                requests[rid] = wall
                statuses.append(status)
                bodies.append(raw)
        except (OSError, ValueError) as exc:
            return Op(op_id, requests or {op_id: 0.0},
                      error=f"{type(exc).__name__}: {exc}")
        bad = [s for s in statuses if not 200 <= s < 300]
        error = f"HTTP {bad[0]}: {bodies[-1][:200]!r}" if bad else None
        return Op(op_id, requests, error=error,
                  result=(kind, body, bodies[-1]))

    # -- Workload interface ----------------------------------------------

    def warm(self) -> None:
        # Client-side imports and the in-process solo path the final
        # checks use; the server's own imports belong to its set-up.
        from repro.api import AuditSession
        from repro.spec import AuditSpec

        AuditSession(self.bin_coords[:500], self.bin_outcomes[:500]).run(
            AuditSpec.from_dict(self.grid_spec(4, 1))
        ).to_dict(full=True)
        measure.spawn_probe_ms()

    def setup_bracket_ms(self) -> float:
        # The set-up is mostly starting a process and its imports.
        return measure.process_bracket_ms()

    def setup(self, k: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        args = [
            "serve", "--port", "0",
            "--data", f"bin={self.data_paths['bin']}",
            "--data", f"cat={self.data_paths['cat']}",
            "--store", str(self.tmp / f"tickets-{k}.sqlite"),
            "--queue-size", "64",
        ]
        if self.traced:
            trace_path = self.tmp / f"server-{k}.jsonl"
            cmd = [sys.executable, str(HERE / "traced_server.py"),
                   str(trace_path), *args]
            self.server_traces.append((k, trace_path))
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        log = open(self.tmp / f"server-{k}.log", "w")
        try:
            # Its own process group, so teardown can wait for the
            # helpers the server starts (its resource tracker) as well.
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                env=env, cwd=ROOT, process_group=0,
            )
        finally:
            log.close()
        self.url = self._read_announce()
        status, raw, _ = self.request("/healthz", None, f"s{k}")
        if status != 200 or not json.loads(raw)["ok"]:
            raise RuntimeError(f"server not healthy: {status} {raw!r}")
        status, raw, _ = self.request("/datasets", None, f"s{k}")
        names = sorted(d["name"] for d in json.loads(raw)["datasets"])
        if names != ["bin", "cat"]:
            raise RuntimeError(f"server registered {names}")

    def _read_announce(self) -> str:
        box = {}

        def reader():
            box["line"] = self.proc.stdout.readline().strip()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(ANNOUNCE_TIMEOUT)
        line = box.get("line", "")
        if not line.startswith("listening on http://"):
            raise RuntimeError(f"bad or late announce line {line!r}")
        return line.split()[-1]

    def teardown(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=STOP_TIMEOUT)
        finally:
            proc.stdout.close()
            wait_group_gone(proc.pid)

    def close(self) -> None:
        """Stop the server and the client threads (always runs)."""
        try:
            self.teardown()
        finally:
            self.pool.shutdown(wait=True)

    def burst(self, b: int) -> list:
        futures = [
            self.pool.submit(self._client_op, b, c)
            for c in range(self.clients)
        ]
        return [f.result() for f in futures]

    def check(self, b: int, ops: list) -> list:
        failures = []
        cycle = b // len(CYCLE)
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            kind, body, raw = op.result
            payload = json.loads(raw)
            if kind == "batch":
                if len(payload["reports"]) != len(BATCH_GRIDS):
                    failures.append((i, "batch lost reports"))
                self.first_batches.setdefault(i, (body, payload))
                continue
            report = report_bytes(payload["report"])
            if kind == "fresh":
                self.fresh[(cycle, i)] = report
                self.first_fresh.setdefault(i, (body, report))
            elif kind == "repeat" and self.fresh.pop(
                (cycle, i), None
            ) != report:
                failures.append((i, "cache hit bytes differ from first run"))
        return failures

    def final_checks(self) -> list:
        # Fused /batch == solo and HTTP == in-process, for each client's
        # first batch and first fresh audit.
        from repro.api import AuditSession
        from repro.spec import AuditSpec

        session = AuditSession(self.bin_coords, self.bin_outcomes)
        failures = []
        for client, (body, payload) in sorted(self.first_batches.items()):
            for spec, report in zip(body["specs"], payload["reports"]):
                solo = session.run(AuditSpec.from_dict(spec))
                if report_bytes(solo) != report_bytes(report):
                    failures.append(
                        (f"o4c{client}", "fused batch report != solo run")
                    )
        for client, (body, report) in sorted(self.first_fresh.items()):
            solo = session.run(AuditSpec.from_dict(body["spec"]))
            if report_bytes(solo) != report:
                failures.append(
                    (f"o0c{client}", "HTTP report != in-process run")
                )
        return failures

    def worlds_requested(self, b: int) -> int:
        kind = CYCLE[b % len(CYCLE)]
        per = {
            "adaptive": self.adaptive_worlds,
            "batch": self.n_worlds * len(BATCH_GRIDS),
        }.get(kind, self.n_worlds)
        return per * self.clients

    def rss_mb(self) -> float:
        return measure.vm_hwm_mb(self.proc.pid)

    def service_counters(self) -> dict:
        status, raw, _ = self.request("/stats", None, "stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        stats = json.loads(raw)
        hits = misses = groups = fused = 0
        for ds in stats["datasets"].values():
            hits += ds["report_cache_hits"]
            misses += ds["report_cache_misses"]
            groups += ds["fused_groups"]
            fused += ds["fused_specs"]
        return {
            "serve.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "serve.fused_specs_per_group": fused / groups if groups else 0.0,
            "gateway.rejected": float(
                stats["rejected_full"] + stats["rejected_quota"]
                + stats["rejected_draining"]
            ),
            "gateway.queue_peak": float(stats["queue_peak"]),
        }

    def collect_traces(self) -> tuple:
        """Spans and counts the traced servers dumped on exit; boot-time
        records (no request op) are charged to their set-up."""
        spans, counts = [], []
        for k, path in self.server_traces:
            s, c = spans_mod.load([path])
            for span in s:
                if span.op is None:
                    span.op = f"s{k}"
            spans.extend(s)
            counts.extend(
                (f"s{k}" if op is None else op, name, value)
                for op, name, value in c
            )
        return spans, counts
