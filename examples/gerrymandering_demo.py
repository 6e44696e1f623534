"""Gerrymandering demo: why one fixed partitioning cannot be trusted.

Section 1 of the paper motivates scanning *many* regions: a single
partitioning can be drawn so that an unfair algorithm looks fair
(gerrymandering).  This demo constructs outcomes that are unfair along a
vertical split, then shows:

* an adversarial partitioning whose partitions all have near-identical
  positive rates (the per-partition rates hide the bias);
* that our audit, scanning a modest set of candidate regions, still
  detects the unfairness — region sets with many overlapping candidates
  are robust to any single adversarial boundary choice.

Run with::

    python examples/gerrymandering_demo.py
"""

import numpy as np

from repro import AuditSession, AuditSpec, GridPartitioning, Rect, RegionSpec
from repro.core import gerrymander_score
from repro.datasets import generate_synth


def adversarial_partitioning(bounds: Rect, n_strips: int = 8):
    """Horizontal strips: each strip mixes left and right halves equally.

    Because the bias in Synth runs left/right, every horizontal strip
    contains the same blend of high-rate and low-rate areas, so all
    per-strip positive rates are close to the global rate.
    """
    return GridPartitioning(
        x_edges=np.array([bounds.min_x, bounds.max_x]),
        y_edges=np.linspace(bounds.min_y, bounds.max_y, n_strips + 1),
    )


def main() -> None:
    data = generate_synth(seed=0)  # left half approves 2x the right half
    bounds = data.bounds()
    print(data.describe(), "\n")

    strips = adversarial_partitioning(bounds)
    n = strips.counts(data.coords)
    p = strips.counts(data.coords, weights=data.y_pred.astype(float))
    print("adversarial horizontal strips (rates look uniform):")
    for i, (ni, pi) in enumerate(zip(n, p)):
        print(f"  strip {i}: n={int(ni):5d} rate={pi / ni:.3f}")
    spread = (p / n).max() - (p / n).min()
    print(f"  max rate spread across strips: {spread:.3f} -> looks fair!\n")

    print("audit over the gerrymandered strips alone:")
    session = AuditSession(data.coords, data.y_pred)
    # The strips are a 1 x 8 grid over the data's bounding box.
    result = session.run(
        AuditSpec(regions=RegionSpec.grid(1, 8), n_worlds=199, seed=1)
    ).result
    print(f"  verdict: {'FAIR' if result.is_fair else 'UNFAIR'} "
          f"(p={result.p_value:.3f}) — the adversary wins here\n")

    print("audit over a 12x12 grid of candidate regions:")
    result = session.run(
        AuditSpec(regions=RegionSpec.grid(12, 12), n_worlds=199, seed=1)
    ).result
    print(f"  verdict: {'FAIR' if result.is_fair else 'UNFAIR'} "
          f"(p={result.p_value:.3f})")
    best = result.best_finding
    print(f"  best region: {best.describe()}")
    print("\ngerrymander score of the handed strips:")
    score = gerrymander_score(
        data.coords, data.y_pred, strips, n_random=99, seed=2
    )
    print(
        f"  exposure {score.exposure:.5f} sits at percentile "
        f"{score.percentile:.2f} of random same-complexity partitionings "
        f"-> {'SUSPICIOUS' if score.suspicious else 'unsuspicious'}"
    )
    print(
        "\nLesson: the audit is only as good as its candidate region set;"
        "\nscanning many overlapping regions defeats boundary gerrymanders,"
        "\nand gerrymander_score flags a handed partitioning that hides"
        "\nwhat random boundaries would reveal."
    )


if __name__ == "__main__":
    main()
