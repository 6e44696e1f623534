"""Ablation: Monte Carlo recounting strategies (DESIGN.md Section 5).

The membership-matrix design recounts every region for a simulated
world with one sparse mat-vec.  The naive alternative re-tests every
point against each region (``Region.contains``) and sums the masked
worlds per region.  Both must produce identical counts; the
bench measures the gap that motivates the design.
"""

import time

import numpy as np
from conftest import report

from repro import paper_side_lengths, scan_centers, square_region_set
from repro.index import RegionMembership


def test_membership_matmul_vs_requery(benchmark, lar):
    rng = np.random.default_rng(0)
    sub = rng.choice(len(lar), size=15_000, replace=False)
    coords = lar.coords[sub]
    centers = scan_centers(coords, n_centers=30, seed=0)
    regions = square_region_set(centers, paper_side_lengths())
    n_worlds = 20

    def run():
        member = RegionMembership(regions, coords)
        worlds = (rng.random((len(coords), n_worlds)) < 0.6).astype(
            np.float64
        )
        t0 = time.perf_counter()
        fast = member.positive_counts_batch(worlds)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow = np.empty((len(regions), n_worlds))
        for r, region in enumerate(regions):
            slow[r] = worlds[region.contains(coords)].sum(axis=0)
        t_slow = time.perf_counter() - t0
        return fast, slow, t_fast, t_slow

    fast, slow, t_fast, t_slow = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    report(
        "Ablation: MC recounting (600 regions x 20 worlds, 15k points)",
        [
            ("sparse matmul (s)", "-", f"{t_fast:.3f}"),
            ("per-region requery (s)", "-", f"{t_slow:.3f}"),
            ("speedup", ">1", f"{t_slow / max(t_fast, 1e-9):.1f}x"),
        ],
    )

    assert np.allclose(fast, slow)
    assert t_fast < t_slow
