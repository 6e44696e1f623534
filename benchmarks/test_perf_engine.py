"""Perf: the shared Monte Carlo engine — serial vs workers.

Times one Bernoulli audit workload (40k points, 400 candidate regions,
3072 null worlds) two ways through the same
:class:`repro.engine.MonteCarloEngine`:

* ``workers=1`` — the serial chunk loop;
* ``workers=4`` — the thread pool (capped at the usable cores).

The test prints its timings (field glossary in EXPERIMENTS.md).  The
determinism contract — bit-identical verdicts, critical values and
significant-region sets for any worker count — is asserted
unconditionally; the >= 2x parallel speedup is always printed but
only *asserted* when ``BENCH_STRICT=1`` is set and the machine has
>= 4 usable cores, so shared/throttled CI runners and 1-core
containers cannot flake on a perf number.
"""

import os
import time

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

    # Fresh auditor per mode; membership indexes are prebuilt outside
    # the timings (the engine's story is the world loop, not the index
    # build).
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
    parallel = parallel_auditor.audit(
        regions, n_worlds=N_WORLDS, seed=SEED, workers=WORKERS
    )
    t_parallel = time.perf_counter() - t0

    identical = _fingerprint(serial) == _fingerprint(parallel)
    cores = _usable_cores()
    table = {
        "serial_seconds": round(t_serial, 4),
        "parallel_seconds": round(t_parallel, 4),
        "parallel_speedup": round(t_serial / t_parallel, 3),
        "machine_usable_cores": cores,
        "parallel_identical_to_serial": identical,
    }
    print("\n=== Engine perf ===")
    for key, value in table.items():
        print(f"{key}: {value}")

    # The determinism contract holds everywhere, cores or not.
    assert identical
    # The parallel speedup claim needs real cores and a quiet machine;
    # opt in explicitly so shared CI runners never flake on it.
    if os.environ.get("BENCH_STRICT") == "1" and cores >= 4:
        assert t_serial / t_parallel >= 2.0
