"""Ablation: counting strategies (DESIGN.md Section 5).

Compares two ways of counting identical queries over the LAR-like
point cloud: brute-force numpy masks per query, and one sort-and-slice
:class:`RegionMembership` build answering all queries at once.  Both
must agree exactly; the bench records the throughput gap that
justifies building the membership index rather than scanning every
point per region.
"""

import time

import numpy as np
from conftest import report

from repro import Rect
from repro.geometry import Region, RegionSet
from repro.index import RegionMembership


def _make_queries(lar, k=300, seed=0, min_side=0.05, max_side=0.5):
    """Small-to-medium squares: the selective-query regime where an
    index pays off (brute force must always scan every point)."""
    rng = np.random.default_rng(seed)
    centers = lar.coords[rng.choice(len(lar), size=k)]
    sides = rng.uniform(min_side, max_side, size=k)
    return [
        Rect.from_center((float(cx), float(cy)), float(s))
        for (cx, cy), s in zip(centers, sides)
    ]


def test_counting_backends_agree_and_rank(benchmark, lar):
    queries = _make_queries(lar)
    regions = RegionSet([Region(q, i) for i, q in enumerate(queries)])
    coords = lar.coords

    def run():
        t0 = time.perf_counter()
        brute = [int(q.contains(coords).sum()) for q in queries]
        t_brute = time.perf_counter() - t0
        # One untimed build first: the first build in a process also
        # pays the cold import of scipy.sparse (~0.2 s), which is not
        # the cost of counting.
        RegionMembership(regions, coords)
        t0 = time.perf_counter()
        via_index = RegionMembership(regions, coords).counts.tolist()
        t_index = time.perf_counter() - t0
        return brute, via_index, t_brute, t_index

    brute, via_index, t_brute, t_index = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    report(
        "Ablation: counting strategies (300 queries, 60k points)",
        [
            ("brute force (s)", "-", f"{t_brute:.3f}"),
            ("RegionMembership build (s)", "-", f"{t_index:.3f}"),
            (
                "index speedup over brute",
                ">1",
                f"{t_brute / max(t_index, 1e-9):.1f}x",
            ),
        ],
    )

    assert brute == via_index
    # The point of having an index: selective queries beat a full scan.
    # Allow slack for timer noise in shared environments.
    assert t_index < 1.5 * t_brute
