"""Figure 3: LAR at the high-resolution 100x50 partitioning.

Paper claims:
* (a) our framework declares LAR spatially unfair and identifies 59
  statistically significant partitions, mostly dense;
* (b) the top-50 MeanVar partitions are all very sparse and contain
  only negative outcomes.

Absolute counts depend on the real HMDA data; the bench asserts the
shape — unfair verdict, significant partitions exist and are
overwhelmingly dense and concentrated on the injected bias regions,
while MeanVar's top-50 are sparse single-rate cells.
"""

import numpy as np
from conftest import ALPHA, N_WORLDS, report

from repro import (
    AuditSession,
    AuditSpec,
    GridPartitioning,
    RegionSpec,
    top_contributors,
)
from repro.datasets import DEFAULT_BIAS_REGIONS
from repro.viz import rect_overlay_figure, regions_figure


def test_fig03_highres_partitioning(benchmark, lar, figure_dir):
    grid = GridPartitioning.regular(lar.bounds(), 100, 50)
    session = AuditSession(lar.coords, lar.y_pred)
    spec = AuditSpec(
        regions=RegionSpec.grid(100, 50), n_worlds=N_WORLDS, alpha=ALPHA,
        seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )
    sig = result.significant_findings
    top50 = top_contributors(grid, lar.coords, lar.y_pred, k=50)

    median_sig_n = float(np.median([f.n for f in sig])) if sig else 0.0
    sparse_top50 = sum(c.n <= 10 for c in top50)
    all_negative_top50 = sum(c.p == 0 for c in top50)
    on_bias = sum(
        any(f.rect.intersects(b.rect) for b in DEFAULT_BIAS_REGIONS)
        for f in sig
    )

    report(
        "Figure 3: LAR 100x50 partitioning",
        [
            ("verdict", "unfair", "fair" if result.is_fair else "unfair"),
            ("significant partitions", "59", str(len(sig))),
            ("median n of significant", "dense", f"{median_sig_n:.0f}"),
            (
                "significant on injected bias",
                "(all on real bias)",
                f"{on_bias}/{len(sig)}",
            ),
            ("top-50 MeanVar sparse (n<=10)", "50/50", f"{sparse_top50}/50"),
            (
                "top-50 MeanVar all-negative",
                "50/50",
                f"{all_negative_top50}/50",
            ),
        ],
    )

    regions_figure(
        lar, sig, figure_dir / "fig03a_significant_partitions.svg",
        title="Fig 3(a): significant partitions (SUL)",
    )
    rect_overlay_figure(
        lar,
        [c.rect for c in top50],
        figure_dir / "fig03b_meanvar_top50.svg",
        title="Fig 3(b): top-50 MeanVar partitions",
    )

    assert not result.is_fair
    assert len(sig) >= 10
    assert median_sig_n >= 50
    # The champion is the strong injected bias; the rest are genuine
    # (dense) regional rate variation, as in the real data.
    assert any(
        sig[0].rect.intersects(b.rect) for b in DEFAULT_BIAS_REGIONS
    )
    assert sparse_top50 >= 45
    assert all(c.rate in (0.0, 1.0) for c in top50)
