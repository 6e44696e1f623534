"""Figure 9 (Appendix B.1): LAR at the low-resolution 25x12 partitioning.

Paper claims:
* (a) 22 statistically significant partitions, mostly dense;
* (b) the top-20 MeanVar partitions are mostly sparse, but at this
  coarse resolution MeanVar also surfaces some dense areas — including
  the Northern-California region our framework ranks first.
"""

import numpy as np
from conftest import ALPHA, N_WORLDS, report

from repro import (
    GridPartitioning,
    SpatialFairnessAuditor,
    partition_region_set,
    top_contributors,
)
from repro.datasets import DEFAULT_BIAS_REGIONS
from repro.viz import rect_overlay_figure, regions_figure


def test_fig09_lowres_partitioning(benchmark, lar, figure_dir):
    grid = GridPartitioning.regular(lar.bounds(), 25, 12)
    regions = partition_region_set(grid)
    auditor = SpatialFairnessAuditor(lar.coords, lar.y_pred)
    # At alpha 0.005 over 199 worlds the critical value is the largest
    # null world, so the per-bias check below misses on a few seeds
    # (Phoenix, at seeds 1 and 37 of 1-60).
    result = benchmark.pedantic(
        lambda: auditor.audit(
            regions, n_worlds=N_WORLDS, alpha=ALPHA, seed=2
        ),
        rounds=1,
        iterations=1,
    )
    sig = result.significant_findings
    top20 = top_contributors(grid, lar.coords, lar.y_pred, k=20)

    median_sig_n = float(np.median([f.n for f in sig])) if sig else 0.0
    dense_top20 = [c for c in top20 if c.n >= 100]
    norcal = DEFAULT_BIAS_REGIONS[0].rect
    meanvar_sees_norcal = any(
        c.rect.intersects(norcal) for c in top20
    )

    report(
        "Figure 9: LAR 25x12 partitioning",
        [
            ("verdict", "unfair", "fair" if result.is_fair else "unfair"),
            ("significant partitions", "22", str(len(sig))),
            ("median n of significant", "dense", f"{median_sig_n:.0f}"),
            (
                "top-20 MeanVar includes dense cells",
                "some",
                str(len(dense_top20)),
            ),
            (
                "MeanVar now sees N. California",
                "yes",
                "yes" if meanvar_sees_norcal else "no",
            ),
        ],
    )

    regions_figure(
        lar, sig, figure_dir / "fig09a_lowres_significant.svg",
        title="Fig 9(a): significant partitions, 25x12",
    )
    rect_overlay_figure(
        lar,
        [c.rect for c in top20],
        figure_dir / "fig09b_lowres_meanvar_top20.svg",
        title="Fig 9(b): top-20 MeanVar partitions, 25x12",
    )

    assert not result.is_fair
    assert sig
    assert median_sig_n >= 100
    # Coarser cells: at least one significant partition hits each bias.
    for b in DEFAULT_BIAS_REGIONS:
        assert any(f.rect.intersects(b.rect) for f in sig), b.name
