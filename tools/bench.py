"""Kernel benchmark runner and perf-regression gate.

Times every hot-path kernel (:mod:`repro.kernels`) against a fixed
synthetic workload, appends one per-commit row into the
``kernel_history`` list of ``BENCH_engine.json`` (plus a fused-batch
serving row into ``BENCH_serve.json``), and — with ``--check`` —
compares the fresh row against the history to catch large
regressions::

    python tools/bench.py                 # measure + record
    python tools/bench.py --check         # measure + record + compare
    BENCH_STRICT=1 python tools/bench.py --check   # ... and FAIL on it

The regression gate mirrors the benchmark suite's ``BENCH_STRICT``
discipline: a drop below ``--threshold`` (default 0.5x the median of
prior rows) always *warns*, but only fails the process when
``BENCH_STRICT=1`` is set (or ``--strict`` passed) — so shared 1-core
CI runners record history without flaking, while quiet machines
enforce it.

Each history row records the commit, UTC timestamp, usable cores and
per-kernel throughput in processed cells (region x world entries) per
second, plus the ``membership_build`` row in region x
point entries per second; the list is capped so the JSON stays small.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import kernels  # noqa: E402
from repro.index import RegionMembership  # noqa: E402
from repro.geometry import GridPartitioning, Rect  # noqa: E402
from repro.geometry import partition_region_set  # noqa: E402
from repro.geometry import square_region_set  # noqa: E402

#: Synthetic workload: regions x points x worlds sized so one repeat
#: runs in well under a second per kernel on any machine.
N_POINTS = 20_000
GRID_SIDE = 20  # 400 regions
N_WORLDS = 192
SEED = 7
#: Fixed squares design for the membership-build row: 100 centres x
#: 20 sides = 2000 regions.
N_CENTERS = 100
SQUARE_SIDES = np.linspace(0.02, 0.4, 20)

#: History rows kept per file (oldest dropped first).
HISTORY_CAP = 50


def usable_cores() -> int:
    """Usable core count (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """Short commit hash of the working tree, or 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _workload() -> dict:
    """The fixed synthetic arrays every kernel is timed against."""
    rng = np.random.default_rng(SEED)
    coords = rng.random((N_POINTS, 2))
    regions = partition_region_set(
        GridPartitioning.regular(Rect(0, 0, 1, 1), GRID_SIDE, GRID_SIDE)
    )
    member = RegionMembership(regions, coords)
    worlds = (rng.random((N_POINTS, N_WORLDS)) < 0.5).astype(
        np.float32
    )
    n = member.counts.astype(np.float64)
    world_p = member.positive_counts_batch(worlds)
    world_P = worlds.sum(axis=0, dtype=np.float64)
    expected = rng.random(N_POINTS) + 0.5
    expected *= N_POINTS / expected.sum()
    exp_r = member.positive_counts(expected)
    C = worlds.sum(axis=0, dtype=np.float64)[None, :]
    return {
        "member": member,
        "worlds": worlds,
        "n": n,
        "world_p": world_p,
        "world_P": world_P,
        "exp_r": exp_r,
        "C": C,
    }


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of one call (after one
    untimed warmup call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_membership_build(repeats: int = 3) -> float:
    """Throughput of the cold :class:`RegionMembership` build.

    Times one build over the fixed 20x20 grid and one over the fixed
    squares design (same points as the kernel workload).

    Parameters
    ----------
    repeats : int, default 3
        Timed repetitions per design (best taken).

    Returns
    -------
    float
        Region x point entries per second over both designs.
    """
    rng = np.random.default_rng(SEED)
    coords = rng.random((N_POINTS, 2))
    designs = [
        partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), GRID_SIDE, GRID_SIDE)
        ),
        square_region_set(rng.random((N_CENTERS, 2)), SQUARE_SIDES),
    ]
    seconds = sum(
        _time(lambda: RegionMembership(regions, coords), repeats)
        for regions in designs
    )
    cells = float(sum(len(regions) for regions in designs) * N_POINTS)
    return round(cells / max(seconds, 1e-9), 1)


def bench_kernels(repeats: int = 3) -> dict:
    """Throughput of every hot-path kernel.

    Parameters
    ----------
    repeats : int, default 3
        Timed repetitions per kernel (best taken).

    Returns
    -------
    dict
        Kernel name -> processed cells (region x world entries) per
        second; ``membership_build`` counts region x point entries
        (see :func:`bench_membership_build`).
    """
    w = _workload()
    n, world_p, world_P = w["n"], w["world_p"], w["world_P"]
    member, worlds = w["member"], w["worlds"]
    exp_r, C = w["exp_r"], w["C"]
    cells = float(len(n) * N_WORLDS)
    timings = {
        "bernoulli_llr_batch": _time(
            lambda: kernels.bernoulli_llr_batch(
                n, world_p, float(N_POINTS), world_P, 0
            ),
            repeats,
        ),
        "poisson_llr_batch": _time(
            lambda: kernels.poisson_llr_batch(
                world_p, exp_r, float(N_POINTS), 0
            ),
            repeats,
        ),
        "multinomial_llr_term": _time(
            lambda: kernels.multinomial_llr_term(
                n[:, None], world_p, C, float(N_POINTS)
            ),
            repeats,
        ),
        "membership_counts_batch": _time(
            lambda: kernels.membership_counts_batch(
                member._matrix, worlds
            ),
            repeats,
        ),
    }
    rates = {
        name: round(cells / max(seconds, 1e-9), 1)
        for name, seconds in timings.items()
    }
    rates["membership_build"] = bench_membership_build(repeats)
    return rates


def merge_history(path: Path, key: str, row: dict, cap: int = HISTORY_CAP) -> list:
    """Append ``row`` to the ``key`` list of a bench JSON file,
    preserving every other key and capping the list length.

    Returns the updated history list.
    """
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    history = merged.get(key)
    if not isinstance(history, list):
        history = []
    history.append(row)
    history = history[-cap:]
    merged[key] = history
    path.write_text(json.dumps(merged, indent=2) + "\n")
    return history


def check_regression(
    history: list, threshold: float = 0.5
) -> list:
    """Compare the latest row against the rows before it.

    Parameters
    ----------
    history : list of dict
        ``kernel_history`` rows (oldest first).
    threshold : float, default 0.5
        A kernel regresses when its latest ops/sec falls below
        ``threshold`` times the median of the prior rows.

    Returns
    -------
    list of str
        One human-readable line per regression (empty = clean).
    """
    problems = []
    if len(history) < 2:
        return problems
    *prior, latest = history
    for name, ops in latest.get("kernels", {}).items():
        baseline = [
            r["kernels"][name]
            for r in prior
            if name in r.get("kernels", {})
        ]
        if not baseline:
            continue
        median = float(np.median(baseline))
        if ops < threshold * median:
            problems.append(
                f"{name}: {ops:.0f} cells/s vs median "
                f"{median:.0f} (floor {threshold:.0%})"
            )
    return problems


def bench_serve() -> dict:
    """One fused 4-spec service batch over a synthetic dataset —
    end-to-end serving throughput for the serve history row."""
    from repro import AuditService, AuditSession, AuditSpec, RegionSpec

    rng = np.random.default_rng(SEED)
    coords = rng.random((N_POINTS, 2))
    labels = (rng.random(N_POINTS) < 0.4).astype(np.int8)
    specs = [
        AuditSpec(regions=RegionSpec.grid(20, 20), n_worlds=256, seed=3),
        AuditSpec(regions=RegionSpec.grid(10, 10), n_worlds=256, seed=3),
        AuditSpec(regions=RegionSpec.grid(16, 8), n_worlds=256, seed=3),
        AuditSpec(
            regions=RegionSpec.grid(20, 20),
            n_worlds=256,
            seed=3,
            correction="fdr-bh",
        ),
    ]
    session = AuditSession(coords, labels)
    for spec in specs:
        session.resolve(spec)
    service = AuditService(session)
    t0 = time.perf_counter()
    service.run_batch(specs)
    elapsed = time.perf_counter() - t0
    return {
        "n_specs": len(specs),
        "seconds": round(elapsed, 4),
        "specs_per_sec": round(len(specs) / max(elapsed, 1e-9), 2),
    }


def main(argv: list | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Benchmark the hot-path kernels, record "
        "per-commit history, optionally gate on regressions."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the fresh rows against history",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) on regression even without BENCH_STRICT=1",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="regression floor as a fraction of the prior median "
        "(default 0.5)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per kernel (best taken; default 3)",
    )
    parser.add_argument(
        "--skip-serve",
        action="store_true",
        help="skip the end-to-end serve row (kernels only)",
    )
    args = parser.parse_args(argv)

    commit = git_commit()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    cores = usable_cores()
    engine_json = ROOT / "BENCH_engine.json"
    serve_json = ROOT / "BENCH_serve.json"

    row = {
        "commit": commit,
        "utc": stamp,
        "cores": cores,
        "kernels": bench_kernels(repeats=args.repeats),
    }
    history = merge_history(engine_json, "kernel_history", row)
    print("[kernels] " + ", ".join(
        f"{k}={v:,.0f} cells/s" for k, v in row["kernels"].items()
    ))

    if not args.skip_serve:
        serve_row = {
            "commit": commit,
            "utc": stamp,
            "cores": cores,
            **bench_serve(),
        }
        merge_history(serve_json, "serve_history", serve_row)
        print(
            f"[serve] {serve_row['n_specs']} specs in "
            f"{serve_row['seconds']}s "
            f"({serve_row['specs_per_sec']} specs/s)"
        )

    if args.check:
        problems = check_regression(history, threshold=args.threshold)
        strict = args.strict or os.environ.get("BENCH_STRICT") == "1"
        if problems:
            for line in problems:
                print(f"REGRESSION: {line}", file=sys.stderr)
            if strict:
                return 1
            print(
                "(warning only — set BENCH_STRICT=1 or --strict to "
                "fail on regressions)",
                file=sys.stderr,
            )
        else:
            print("perf check: no regressions against history")
    return 0


if __name__ == "__main__":
    sys.exit(main())
