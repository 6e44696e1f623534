"""Figure 6 (Appendix A): fair algorithms always show "red" clusters.

Paper claims: in four examples of 1,000 outcomes from a spatially fair
algorithm (rho = 0.5, same locations, redrawn labels), one can always
find a region with at least five negative and no positive outcomes —
so observing such a region is NOT evidence of unfairness.

The bench regenerates the four worlds, verifies each contains such a
cluster among the scanned regions, and confirms the audit still declares
every world fair.
"""

import numpy as np
from conftest import ALPHA, N_WORLDS, report

from repro import AuditSession, AuditSpec, RegionSpec
from repro.viz import dataset_figure
from repro.datasets import SpatialDataset


def test_fig06_fair_worlds_contain_red_clusters(benchmark, figure_dir):
    rng = np.random.default_rng(0)
    coords = rng.random((1000, 2))
    design = RegionSpec.grid(12, 12, bounds=(0.0, 0.0, 1.0, 1.0))

    def run():
        worlds = []
        for w in range(4):
            labels = (rng.random(1000) < 0.5).astype(np.int8)
            result = AuditSession(coords, labels).run(
                AuditSpec(
                    regions=design, n_worlds=N_WORLDS, alpha=ALPHA,
                    seed=100 + w,
                )
            ).result
            worlds.append((labels, result))
        return worlds

    worlds = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for w, (labels, result) in enumerate(worlds):
        red = [f for f in result.findings if f.n >= 5 and f.p == 0]
        rows.append(
            (
                f"world {w}: >=5-negative cluster / verdict",
                "exists / fair",
                f"{'exists' if red else 'MISSING'} / "
                f"{'fair' if result.is_fair else 'UNFAIR'}",
            )
        )
        if w == 0:
            dataset_figure(
                SpatialDataset(coords=coords, y_pred=labels, name="fair"),
                figure_dir / "fig06_fair_world.svg",
                title="Fig 6: a fair world (red clusters arise by chance)",
            )
    report("Figure 6: fair worlds and chance clusters", rows)

    for labels, result in worlds:
        assert any(f.n >= 5 and f.p == 0 for f in result.findings)
        assert result.is_fair
