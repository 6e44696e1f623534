"""Perf: the batched audit service — fused vs sequential throughput.

The production question behind :mod:`repro.serve`: when six audits
share one dataset and one null model (different region designs,
significance levels and corrections), how much does fusing their
Monte Carlo passes save?  This benchmark runs the same 6-spec batch
over the LAR-like dataset twice:

* **sequential** — one :class:`repro.api.AuditSession`, ``run()`` per
  spec: every spec simulates its own ``N_WORLDS`` null worlds;
* **fused** — one :class:`repro.serve.AuditService` batch: the group
  simulates its worlds once and scores all six specs' statistics per
  world through the stacked membership matrix.

The test prints its numbers (field glossary in EXPERIMENTS.md).
Asserted unconditionally: fused reports are bit-identical to
sequential ones, and fusion simulates >= 2x fewer worlds — here 6x
(sequential simulates 6 passes, fused 1), a deterministic count
immune to machine noise.
The wall-clock speedup is always printed; it is asserted (>= 2x) only
under ``BENCH_STRICT=1`` on a quiet machine, mirroring
``test_perf_engine.py`` — though unlike thread-pool parallelism the
fused saving is algorithmic and shows up on a single core too.
"""

import os
import time

from repro import AuditService, AuditSession, AuditSpec, RegionSpec

#: One shared null model: same family/measure/direction/worlds/seed;
#: the six specs differ in region design, alpha and correction.
N_WORLDS = 1024
SEED = 29
ALPHA = 0.005


def _specs() -> list:
    return [
        AuditSpec(regions=RegionSpec.grid(50, 25), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED),
        AuditSpec(regions=RegionSpec.grid(25, 12), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED),
        AuditSpec(regions=RegionSpec.grid(40, 20), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED),
        AuditSpec(regions=RegionSpec.grid(50, 25), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, correction="fdr-bh"),
        AuditSpec(regions=RegionSpec.squares(60, centers_seed=0),
                  n_worlds=N_WORLDS, alpha=ALPHA, seed=SEED),
        AuditSpec(regions=RegionSpec.grid(10, 10), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED),
    ]


def _fingerprint(report):
    result = report.result
    return (
        result.is_fair,
        result.p_value,
        result.critical_value,
        tuple(f.index for f in result.significant_findings),
        tuple(f.p_value for f in result.findings),
    )


def test_perf_serve(lar):
    specs = _specs()

    # Fresh session per mode so neither can hit the other's caches;
    # region sets and membership indexes are prebuilt outside the
    # timings in BOTH modes (identical index work either way — the
    # story here is world simulation, not index builds).
    sequential_session = AuditSession(lar.coords, lar.y_pred)
    fused_session = AuditSession(lar.coords, lar.y_pred)
    for session in (sequential_session, fused_session):
        for spec in specs:
            session.resolve(spec)

    t0 = time.perf_counter()
    sequential = [sequential_session.run(spec) for spec in specs]
    t_sequential = time.perf_counter() - t0
    worlds_sequential = sequential_session.worlds_simulated

    service = AuditService(fused_session)
    t0 = time.perf_counter()
    fused = service.run_batch(specs)
    t_fused = time.perf_counter() - t0
    worlds_fused = fused_session.worlds_simulated

    identical = all(
        _fingerprint(a) == _fingerprint(b)
        for a, b in zip(sequential, fused)
    )
    stats = service.stats()
    worlds_ratio = worlds_sequential / max(worlds_fused, 1)
    table = {
        "sequential_seconds": round(t_sequential, 4),
        "fused_seconds": round(t_fused, 4),
        "fused_speedup": round(t_sequential / t_fused, 3),
        "worlds_ratio": round(worlds_ratio, 2),
        "fused_groups": stats["fused_groups"],
        "fused_identical_to_sequential": identical,
    }
    print("\n=== Batch service perf ===")
    for key, value in table.items():
        print(f"{key}: {value}")

    # Bit-identity and the world amortisation are deterministic —
    # asserted everywhere, any machine.
    assert identical
    assert stats["fused_groups"] == 1
    assert worlds_ratio >= 2.0
    assert worlds_fused == N_WORLDS
    # Wall-clock is machine-dependent; opt in like the engine bench.
    if os.environ.get("BENCH_STRICT") == "1":
        assert t_sequential / t_fused >= 2.0
