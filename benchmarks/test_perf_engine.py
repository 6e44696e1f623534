"""Perf: the shared Monte Carlo engine — serial vs workers, cache.

Times one Bernoulli audit workload (40k points, 400 candidate regions,
3072 null worlds) three ways through the same
:class:`repro.engine.MonteCarloEngine`:

* ``workers=1`` — the serial chunk loop;
* ``workers=4`` — the thread pool (capped at the usable cores);
* a repeated identical audit — answered from the null-distribution
  cache without simulating anything.

Results land in ``BENCH_engine.json`` at the repository root (see
EXPERIMENTS.md for the field glossary) so future PRs can track the
engine's perf trajectory.  The determinism contract — bit-identical
verdicts, critical values and significant-region sets for any worker
count — is asserted unconditionally; the >= 2x parallel speedup is
always recorded but only *asserted* when ``BENCH_STRICT=1`` is set
and the machine has >= 4 usable cores, so shared/throttled CI runners
and 1-core containers cannot flake on a perf number.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import (
    GridPartitioning,
    Rect,
    SpatialFairnessAuditor,
    partition_region_set,
)

N_POINTS = 40_000
GRID_SIDE = 20
#: Big enough that pool startup is noise against the world loop on a
#: multi-core machine (~1s of serial simulation).
N_WORLDS = 3072
SEED = 11
WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _merge_bench(out: Path, payload: dict) -> None:
    """Update BENCH_engine.json in place: the file also carries the
    per-commit ``kernel_history`` rows appended by ``tools/bench.py``
    (and the kernel-suite keys), so each writer only overwrites its
    own keys."""
    merged = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(payload)
    out.write_text(json.dumps(merged, indent=2) + "\n")


def _fingerprint(result):
    return (
        result.is_fair,
        result.p_value,
        result.critical_value,
        tuple(f.index for f in result.significant_findings),
    )


def test_perf_engine():
    rng = np.random.default_rng(0)
    coords = rng.random((N_POINTS, 2))
    inside = Rect(0.0, 0.0, 0.3, 0.3).contains(coords)
    labels = (
        rng.random(N_POINTS) < np.where(inside, 0.45, 0.6)
    ).astype(np.int8)
    regions = partition_region_set(
        GridPartitioning.regular(Rect(0, 0, 1, 1), GRID_SIDE, GRID_SIDE)
    )

    # Fresh auditor per mode so neither run can hit the other's null
    # cache; membership indexes are prebuilt outside the timings (the
    # engine's story is the world loop, not the index build).
    serial_auditor = SpatialFairnessAuditor(coords, labels)
    serial_auditor.membership(regions)
    parallel_auditor = SpatialFairnessAuditor(coords, labels)
    parallel_auditor.membership(regions)

    t0 = time.perf_counter()
    serial = serial_auditor.audit(
        regions, n_worlds=N_WORLDS, seed=SEED, workers=1
    )
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    cached = serial_auditor.audit(
        regions, n_worlds=N_WORLDS, seed=SEED, workers=1
    )
    t_cached = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = parallel_auditor.audit(
        regions, n_worlds=N_WORLDS, seed=SEED, workers=WORKERS
    )
    t_parallel = time.perf_counter() - t0

    identical = _fingerprint(serial) == _fingerprint(parallel)
    cores = _usable_cores()
    payload = {
        "workload": {
            "n_points": N_POINTS,
            "n_regions": len(regions),
            "n_worlds": N_WORLDS,
            "seed": SEED,
            "family": "bernoulli",
        },
        "machine_usable_cores": cores,
        "serial_seconds": round(t_serial, 4),
        "serial_worlds_per_sec": round(N_WORLDS / t_serial, 1),
        "workers": WORKERS,
        "parallel_seconds": round(t_parallel, 4),
        "parallel_worlds_per_sec": round(N_WORLDS / t_parallel, 1),
        "parallel_speedup": round(t_serial / t_parallel, 3),
        "cache_hit_seconds": round(t_cached, 4),
        "cache_hit_speedup": round(t_serial / max(t_cached, 1e-9), 1),
        "parallel_identical_to_serial": identical,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    _merge_bench(out, payload)

    print("\n=== Engine perf (BENCH_engine.json) ===")
    for key in (
        "serial_seconds", "parallel_seconds", "parallel_speedup",
        "cache_hit_seconds", "machine_usable_cores",
        "parallel_identical_to_serial",
    ):
        print(f"{key}: {payload[key]}")

    # The determinism contract holds everywhere, cores or not.
    assert identical
    assert _fingerprint(cached) == _fingerprint(serial)
    # The cache answers repeats without resimulating 3072 worlds.
    assert t_cached < t_serial / 2
    # The parallel speedup claim needs real cores and a quiet machine;
    # opt in explicitly so shared CI runners never flake on it.
    if os.environ.get("BENCH_STRICT") == "1" and cores >= 4:
        assert t_serial / t_parallel >= 2.0
