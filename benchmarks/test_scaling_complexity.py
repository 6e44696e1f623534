"""Section 3 complexity: cost is O(M . N . Q).

The paper states the audit costs O(M.N.Q) — Monte Carlo worlds times
regions times range-count cost.  The bench measures wall time while
doubling (a) the number of worlds and (b) the number of regions, and
asserts approximate linearity (doubling the driver at most ~triples the
time, ruling out super-linear blowups).
"""

import time

import numpy as np
from conftest import report

from repro import AuditSession, AuditSpec, RegionSpec


def _timed_audit(session, design, n_worlds):
    spec = AuditSpec(regions=design, n_worlds=n_worlds, alpha=0.05, seed=0)
    start = time.perf_counter()
    session.run(spec)
    return time.perf_counter() - start


def test_scaling_in_worlds_and_regions(benchmark, lar):
    rng = np.random.default_rng(0)
    sub = rng.choice(len(lar), size=20_000, replace=False)
    coords = lar.coords[sub]
    labels = lar.y_pred[sub]
    session = AuditSession(coords, labels)
    sides = tuple(np.linspace(0.1, 2.0, 20))
    # Half the regions: a 25-centre fit instead of 50 (both k-means at
    # centers_seed 0), so the two designs differ in region count.
    regions = RegionSpec.squares(50, sides)
    half_regions = RegionSpec.squares(25, sides)
    # Memberships are built outside the timings.
    for design in (regions, half_regions):
        session.region_set(design)

    def run():
        # Warm-up to stabilise allocator effects.
        _timed_audit(session, regions, 40)
        t_worlds_1x = _timed_audit(session, regions, 100)
        t_worlds_2x = _timed_audit(session, regions, 200)
        t_regions_half = _timed_audit(session, half_regions, 100)
        return t_worlds_1x, t_worlds_2x, t_regions_half

    t1, t2, t_half = benchmark.pedantic(run, rounds=1, iterations=1)
    world_ratio = t2 / t1
    region_ratio = t1 / t_half

    report(
        "Section 3: O(M.N.Q) scaling",
        [
            ("2x worlds time ratio", "~2 (linear)", f"{world_ratio:.2f}"),
            ("2x regions time ratio", "~2 (linear)", f"{region_ratio:.2f}"),
        ],
    )

    assert world_ratio < 3.2, "time must scale ~linearly in worlds"
    assert region_ratio < 3.2, "time must scale ~linearly in regions"
