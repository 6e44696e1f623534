"""The in-process workloads: audit-grid, audit-scan and stream-window.

Each workload generates its inputs from the run seed, performs cold
set-ups, runs one op per burst against the public ``repro`` API, checks
every op's output and, at the end, the run-level correctness gates.
``gateway_load.py`` holds the HTTP workload, which shares the
:class:`Workload` interface.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time

import numpy as np

import measure

#: Unit square every workload's points live in.
UNIT = (0.0, 0.0, 1.0, 1.0)


@dataclasses.dataclass
class Op:
    """One measured op: its id, client wall seconds per request (one
    request for in-process ops), and the error it raised, if any."""

    id: str
    requests: dict
    error: str | None = None
    result: object = None

    @property
    def wall(self) -> float:
        return sum(self.requests.values())


def overlap_area(rect, box) -> float:
    """Area shared by a ``repro.geometry.Rect`` and an
    ``(x0, y0, x1, y1)`` box (0 when they only touch)."""
    w = min(rect.max_x, box[2]) - max(rect.min_x, box[0])
    h = min(rect.max_y, box[3]) - max(rect.min_y, box[1])
    return max(w, 0.0) * max(h, 0.0)


def report_bytes(report) -> str:
    """Canonical bytes of a report payload (``to_dict`` output or an
    ``AuditReport``)."""
    payload = report if isinstance(report, dict) else report.to_dict(
        full=True
    )
    return json.dumps(payload, sort_keys=True)


class Workload:
    """Interface the runner drives.

    Attributes
    ----------
    name : str
    setups : int
        Cold set-ups per run; ``setup_s`` is their median.
    traced_ops : int
        Bursts measured in the traced phase (fixed, so counts repeat).
    in_process : bool
        Whether ops run in this process (the runner then opens the
        root span and installs the layer wrappers itself).
    """

    name = "base"
    setups = 7
    traced_ops = 40
    in_process = True

    def __init__(self, seed: int, tmp):
        self.seed = int(seed)
        self.tmp = tmp
        self.rng = np.random.default_rng(self.seed)

    def op_seed(self, b: int) -> int:
        """The fresh audit seed of burst ``b``."""
        return int(np.random.default_rng([self.seed, b]).integers(2**31))

    def warm(self) -> None:
        """Untimed warm-up: every import and lazy path the ops use."""

    def setup(self, k: int) -> None:
        """One cold set-up; the last one's state serves the ops."""
        raise NotImplementedError

    def setup_bracket_ms(self) -> float:
        """The probe time that brackets one cold set-up."""
        return measure.probe_median_ms()

    def teardown(self) -> None:
        """Release what the last set-up holds."""

    def burst(self, b: int) -> list:
        """Run burst ``b``; returns its ops (timed per request)."""
        raise NotImplementedError

    def check(self, b: int, ops: list) -> list:
        """Cheap per-burst checks: ``(op index, reason)`` failures."""
        return []

    def final_checks(self) -> list:
        """Run-level checks: ``(op id, reason)`` failures."""
        return []

    def worlds_requested(self, b: int) -> int:
        """Null worlds the burst's audits ask for."""
        raise NotImplementedError

    def rss_mb(self) -> float:
        """Peak RSS of the process doing the work, in MB."""
        return measure.rss_peak_mb()

    def service_counters(self) -> dict:
        """Service-level ratios and peaks for the traced report."""
        return {}


def _timed(op_id, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op failure is a measured outcome
        return Op(op_id, {op_id: time.perf_counter() - t0},
                  error=f"{type(exc).__name__}: {exc}")
    return Op(op_id, {op_id: time.perf_counter() - t0}, result=result)


class _SingleAudit(Workload):
    """Shared shape of audit-grid and audit-scan: one fresh-seed
    ``AuditSession.run`` per op over a planted-bias dataset; every op
    must be UNFAIR with a best finding overlapping the planted box."""

    planted: tuple = UNIT

    def make_spec(self, seed: int):
        raise NotImplementedError

    def make_session(self, scale: float = 1.0):
        raise NotImplementedError

    def warm(self) -> None:
        session = self.make_session(scale=0.05)
        session.run(self.make_spec(1)).to_dict(full=True)

    def setup(self, k: int) -> None:
        self.session = self.make_session()
        self.session.resolve(self.make_spec(0))

    def teardown(self) -> None:
        self.session = None
        gc.collect()

    def burst(self, b: int) -> list:
        spec = self.make_spec(self.op_seed(b))
        return [_timed(f"o{b}", lambda: self.session.run(spec))]

    def check(self, b: int, ops: list) -> list:
        report = ops[0].result
        if b == 0:
            self.first_bytes = report_bytes(report)
        if report.is_fair:
            return [(0, f"verdict FAIR (p={report.p_value})")]
        best = report.result.best_finding
        if best is None or overlap_area(best.rect, self.planted) <= 0:
            return [(0, "best finding misses the planted region")]
        return []

    def final_checks(self) -> list:
        # Seeded => bit-identical: op 0's seed in a cold session.
        if not hasattr(self, "first_bytes"):
            return [("o0", "op 0 produced no report")]
        self.teardown()
        replay = self.make_session().run(self.make_spec(self.op_seed(0)))
        if report_bytes(replay) != self.first_bytes:
            return [("o0", "repeated seed changed the report bytes")]
        return []

    def worlds_requested(self, b: int) -> int:
        return self.make_spec(0).n_worlds


class AuditGrid(_SingleAudit):
    """Fixed-budget Bernoulli audit over a 20x20 grid of 100k points
    with a planted low-rate corner (simulation-dominated)."""

    name = "audit-grid"
    planted = (0.0, 0.0, 0.2, 0.2)
    n_points = 100_000
    n_worlds = 64

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        n = self.n_points
        self.coords = self.rng.random((n, 2))
        rate = np.where(
            (self.coords[:, 0] < self.planted[2])
            & (self.coords[:, 1] < self.planted[3]),
            0.3,
            0.5,
        )
        self.outcomes = (self.rng.random(n) < rate).astype(np.int8)

    def make_spec(self, seed: int):
        from repro.spec import AuditSpec, RegionSpec

        return AuditSpec(
            regions=RegionSpec.grid(20, 20, bounds=UNIT),
            n_worlds=self.n_worlds,
            seed=seed,
            workers=1,
        )

    def make_session(self, scale: float = 1.0):
        from repro.api import AuditSession

        n = int(len(self.coords) * scale)
        return AuditSession(self.coords[:n], self.outcomes[:n])


class AuditScan(_SingleAudit):
    """Poisson audit over the paper's square scan (100 k-means centres
    x 20 sides) of 20k areas with a planted excess strip, on the
    two-worker fork pool (recount and pool dominated)."""

    name = "audit-scan"
    planted = (0.45, 0.0, 0.55, 1.0)
    setups = 3
    n_points = 20_000
    n_worlds = 48

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        n = self.n_points
        self.coords = self.rng.random((n, 2))
        self.forecast = self.rng.gamma(4.0, 0.5, n)
        excess = np.where(
            (self.coords[:, 0] > self.planted[0])
            & (self.coords[:, 0] < self.planted[2]),
            1.6,
            1.0,
        )
        self.observed = self.rng.poisson(self.forecast * excess)

    def make_spec(self, seed: int):
        from repro.spec import AuditSpec, RegionSpec

        return AuditSpec(
            regions=RegionSpec.squares(
                100, sides=tuple(np.linspace(0.02, 0.20, 20).round(4))
            ),
            family="poisson",
            n_worlds=self.n_worlds,
            seed=seed,
            workers=2,
        )

    def make_session(self, scale: float = 1.0):
        from repro.api import AuditSession

        n = int(len(self.coords) * scale)
        return AuditSession(
            self.coords[:n], self.observed[:n], forecast=self.forecast[:n]
        )


class StreamWindow(Workload):
    """``AuditService.watch`` of three explicit-bounds grid specs over a
    50k-point sliding window; each op appends 1 % and evicts 1 %."""

    name = "stream-window"
    n_points = 50_000
    batch = 500
    n_worlds = 64
    grids = (10, 16, 20)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        n = self.n_points
        self.coords = self.rng.random((n, 2))
        self.outcomes = (self.rng.random(n) < 0.5).astype(np.int8)
        self.timestamps = np.arange(n, dtype=np.float64)
        # One seed for all three: they share a null model, so every
        # advance runs them as one fused group.
        seed = int(self.rng.integers(2**31))
        self.specs = [self.make_spec(g, seed) for g in self.grids]

    def make_spec(self, cells: int, seed: int):
        from repro.spec import AuditSpec, RegionSpec

        return AuditSpec(
            regions=RegionSpec.grid(cells, cells, bounds=UNIT),
            n_worlds=self.n_worlds,
            seed=seed,
        )

    def _start(self, n: int):
        from repro.api import AuditSession
        from repro.serve import AuditService

        session = AuditSession(
            self.coords[:n].copy(),
            self.outcomes[:n].copy(),
            timestamps=self.timestamps[:n].copy(),
        )
        service = AuditService(session)
        service.watch(self.specs)
        service.advance(window=float(n - 1))
        return session, service

    def warm(self) -> None:
        session, service = self._start(2_000)
        service.advance(
            self.coords[:50], self.outcomes[:50],
            timestamps=np.arange(2_000, 2_050, dtype=np.float64),
            window=1_999.0,
        )

    def setup(self, k: int) -> None:
        self.session, self.service = self._start(self.n_points)
        self.clock = float(self.n_points)
        self.last = None

    def teardown(self) -> None:
        self.session = self.service = None
        gc.collect()

    def burst(self, b: int) -> list:
        rng = np.random.default_rng([self.seed, b, 1])
        k = self.batch
        coords = rng.random((k, 2))
        outcomes = (rng.random(k) < 0.5).astype(np.int8)
        stamps = self.clock + np.arange(k, dtype=np.float64)
        self.clock += k
        op = _timed(
            f"o{b}",
            lambda: self.service.advance(
                coords, outcomes, timestamps=stamps,
                window=float(self.n_points - 1),
            ),
        )
        if op.error is None:
            self.last = op.result
        return [op]

    def check(self, b: int, ops: list) -> list:
        if len(ops[0].result) != len(self.specs):
            return [(0, "advance returned the wrong number of reports")]
        if len(self.session.coords) != self.n_points:
            return [(0, f"window holds {len(self.session.coords)} points")]
        return []

    def final_checks(self) -> list:
        # Streamed == cold: the last advance against a cold session.
        from repro.api import AuditSession

        if self.last is None:
            return [("o0", "no advance completed")]
        s = self.session
        cold = AuditSession(
            s.coords.copy(), s.outcomes.copy(),
            timestamps=s.timestamps.copy(),
        )
        for spec, report in zip(self.specs, self.last):
            if report_bytes(cold.run(spec)) != report_bytes(report):
                return [("last", f"streamed report differs from cold "
                         f"for {spec.regions.nx}x{spec.regions.ny}")]
        return []

    def worlds_requested(self, b: int) -> int:
        return self.n_worlds * len(self.specs)

    def service_counters(self) -> dict:
        stats = self.service.stats()
        runs, skips = stats["stream_runs"], stats["stream_skips"]
        return {
            "serve.stream_skip_ratio": (
                skips / (runs + skips) if runs + skips else 0.0
            ),
            "serve.fused_specs_per_group": (
                stats["fused_specs"] / stats["fused_groups"]
                if stats["fused_groups"] else 0.0
            ),
        }
