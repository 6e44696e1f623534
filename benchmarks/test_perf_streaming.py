"""Perf: continuous audits over a sliding window — warm vs cold.

The production question behind the streaming subsystem: a service
watches several audits over a moving dataset; every arrival batch
slides a time window by ~1%.  How much cheaper is
:meth:`repro.serve.AuditService.advance` than auditing the moved
window from scratch?

Three audits are watched over a 20k-point stream:

* a statistical-parity grid — its measured slice moves with every
  slide, so it must re-simulate its null, but the membership index
  updates incrementally (column append/evict) instead of
  rebuilding;
* an equal-opportunity grid and an equal-opportunity square scan —
  the arrival and eviction batches are crafted with ``y_true == 0``,
  so their measured slice is untouched and the service answers them
  from the report cache, whose key covers exactly that slice.

The **warm** measurement is one ``advance(batch, window=...)`` call
after the baseline audit; the **cold** measurement builds a fresh
session over the identical post-slide dataset and serves the same
batch.  Reports must match bit for bit — the equivalence contract
proven region-by-region in ``tests/test_streaming.py`` — so the
speedup buys nothing but time.

The test prints its numbers (field glossary in EXPERIMENTS.md).
Asserted unconditionally: bit-identical reports, the skip/run
counters, and at least one incremental index update.  The >= 5x
wall-clock speedup is asserted only under ``BENCH_STRICT=1``,
mirroring the other perf benches — though the measured ratio is
typically far above the floor because two of the three audits skip
entirely.
"""

import json
import os
import time

import numpy as np

from repro import AuditService, AuditSession, AuditSpec, RegionSpec

N_POINTS = 20_000
DELTA = 200  # a 1% slide
SEED = 31


def _specs() -> list:
    return [
        AuditSpec(
            regions=RegionSpec.grid(25, 25, bounds=(0, 0, 1, 1)),
            n_worlds=64,
            seed=SEED,
        ),
        AuditSpec(
            regions=RegionSpec.grid(50, 50, bounds=(0, 0, 1, 1)),
            n_worlds=192,
            seed=SEED,
            measure="equal_opportunity",
        ),
        AuditSpec(
            regions=RegionSpec.squares(80),
            n_worlds=192,
            seed=SEED,
            measure="equal_opportunity",
        ),
    ]


def _payloads(reports) -> list:
    return [
        json.dumps(r.to_dict(full=True), sort_keys=True)
        for r in reports
    ]


def test_perf_streaming():
    rng = np.random.default_rng(33)
    total = N_POINTS + DELTA
    coords = rng.random((total, 2))
    outcomes = (rng.random(total) < 0.55).astype(np.int8)
    y_true = (rng.random(total) < 0.5).astype(np.int8)
    # The evicted head and the arrival tail sit outside the
    # equal-opportunity slice (y_true == 1), so both eo audits are
    # provably untouched by the slide and must stream-skip.
    y_true[:DELTA] = 0
    y_true[N_POINTS:] = 0
    timestamps = np.arange(total, dtype=np.float64)

    specs = _specs()
    session = AuditSession(
        coords[:N_POINTS],
        outcomes[:N_POINTS],
        y_true=y_true[:N_POINTS],
        timestamps=timestamps[:N_POINTS],
    )
    service = AuditService(session)
    service.watch(specs)
    service.advance()  # step 0: the baseline audit, outside timings

    # Warm: one arrival batch + window slide dropping the oldest 1%.
    window = float(timestamps[total - 1] - DELTA)
    t0 = time.perf_counter()
    warm = service.advance(
        coords[N_POINTS:],
        outcomes[N_POINTS:],
        y_true=y_true[N_POINTS:],
        timestamps=timestamps[N_POINTS:],
        window=window,
    )
    t_warm = time.perf_counter() - t0

    # Cold: audit the identical post-slide dataset from scratch
    # (session construction, region builds and all null passes).
    t0 = time.perf_counter()
    cold_session = AuditSession(
        coords[DELTA:],
        outcomes[DELTA:],
        y_true=y_true[DELTA:],
        timestamps=timestamps[DELTA:],
    )
    cold = AuditService(cold_session).run_batch(specs)
    t_cold = time.perf_counter() - t0

    identical = _payloads(warm) == _payloads(cold)
    stats = service.stats()
    speedup = t_cold / max(t_warm, 1e-9)
    table = {
        "cold_seconds": round(t_cold, 4),
        "warm_seconds": round(t_warm, 4),
        "warm_speedup": round(speedup, 1),
        "stream_runs": stats["stream_runs"],
        "stream_skips": stats["stream_skips"],
        "incremental_builds": stats["incremental_builds"],
        "warm_identical_to_cold": identical,
    }
    print("\n=== Streaming audit perf ===")
    for key, value in table.items():
        print(f"{key}: {value}")

    # Deterministic everywhere: the equivalence contract and the
    # cache accounting (3 specs at step 0 + 1 re-run, 2 skips, one
    # incremental update per surviving engine).
    assert identical
    assert len(session.coords) == N_POINTS
    assert stats["stream_runs"] == 4
    assert stats["stream_skips"] == 2
    assert stats["incremental_builds"] >= 1
    # Wall-clock is machine-dependent; opt in like the other benches.
    if os.environ.get("BENCH_STRICT") == "1":
        assert speedup >= 5.0
