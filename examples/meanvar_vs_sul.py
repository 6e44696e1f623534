"""Side-by-side: the MeanVar baseline vs our scan on the same data.

Reproduces the Figure 2 contrast of the paper on LAR-like data: ask both
methods "where is it unfair?" and compare what they point at.

* MeanVar's top contributors are sparse partitions with extreme (0 or 1)
  local rates — visually alarming, statistically meaningless;
* the scan's top findings are dense regions whose rates differ
  significantly from the global rate.

The demo also runs the exact binomial sanity check the paper applies to
the Iowa partition: a tiny all-negative partition is *not* a rare event
under fairness once you remember how many partitions were examined.

Run with::

    python examples/meanvar_vs_sul.py
"""

import repro
from repro import GridPartitioning, rank_contributions
from repro.datasets import generate_lar_like
from repro.stats import binom_test


def main() -> None:
    data = generate_lar_like(n_applications=60_000, n_tracts=15_000, seed=0)
    print(data.describe(), "\n")
    grid = GridPartitioning.regular(data.bounds(), 100, 50)

    print("=== MeanVar: top-5 contributing partitions ===")
    contributions = rank_contributions(grid, data.coords, data.y_pred)
    for contrib in contributions[:5]:
        print(
            f"  n={contrib.n:4d} p={contrib.p:4d} rate={contrib.rate:.2f} "
            f"deviation={contrib.deviation:+.2f} "
            f"contribution={contrib.contribution:.2e}"
        )
    sparse = [c for c in contributions[:50] if c.n <= 10]
    print(f"  ({len(sparse)} of the top 50 have 10 or fewer points)\n")

    print("=== Our scan: top-5 significant partitions ===")
    result = (
        repro.audit(data.coords, data.y_pred)
        .partition(100, 50)
        .worlds(199)
        .seed(1)
        .run()
        .result
    )
    for finding in result.top_regions(5):
        print("  " + finding.describe())
    dense = [f for f in result.significant_findings if f.n >= 100]
    print(
        f"  ({len(dense)} of {len(result.significant_findings)} "
        f"significant partitions have 100+ points)\n"
    )

    print("=== The Figure 2(a) sanity check ===")
    worst_sparse = max(
        (c for c in contributions[:50] if c.p == 0),
        key=lambda c: c.n,
        default=None,
    )
    if worst_sparse is not None:
        test = binom_test(
            worst_sparse.p, worst_sparse.n, data.positive_rate,
            alternative="less",
        )
        print(
            f"an all-negative partition with n={worst_sparse.n}: "
            f"single-region exact binomial p = {test.p_value:.3g}"
        )
        n_parts = grid.n_cells
        print(
            f"but {n_parts} partitions were examined — expecting "
            f"~{test.p_value * n_parts:.1f} such partitions by chance.\n"
            "The Monte Carlo max-statistic correction handles exactly this."
        )


if __name__ == "__main__":
    main()
