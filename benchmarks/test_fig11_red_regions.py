"""Figure 11 (Appendix B.2): directional "red" regions on LAR.

Paper claims: scanning for regions with significantly *lower* positive
rate inside than outside yields 27 non-overlapping red regions; the most
unfair is around Miami, FL — 6,281 outcomes with only 43% positive.

The bench runs the directional (lower-inside) audit — note the Monte
Carlo null is directional too, matching the statistic — and checks the
Miami-shaped result.
"""

from conftest import ALPHA, N_WORLDS, report

from repro import (
    AuditSession,
    AuditSpec,
    RegionSpec,
    select_non_overlapping,
)
from repro.datasets import DEFAULT_BIAS_REGIONS
from repro.viz import regions_figure


def test_fig11_red_regions(benchmark, lar, figure_dir):
    session = AuditSession(lar.coords, lar.y_pred)
    spec = AuditSpec(
        regions=RegionSpec.squares(100),
        n_worlds=N_WORLDS,
        alpha=ALPHA,
        direction="lower",
        seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )
    kept = select_non_overlapping(result.findings)
    worst = max(kept, key=lambda f: f.llr) if kept else None
    miami = DEFAULT_BIAS_REGIONS[1]

    report(
        "Figure 11: red regions (lower rate inside)",
        [
            ("non-overlapping red regions", "27", str(len(kept))),
            (
                "most unfair red region",
                "Miami, n=6281, rate 0.43",
                f"n={worst.n}, rate {worst.rho_in:.2f}" if worst else "-",
            ),
            (
                "hits injected Miami region",
                "yes",
                "yes"
                if worst and worst.rect.intersects(miami.rect)
                else "no",
            ),
        ],
    )

    regions_figure(
        lar, kept, figure_dir / "fig11_red_regions.svg",
        title="Fig 11: non-overlapping red regions",
        annotate=True,
    )

    assert not result.is_fair
    assert kept
    assert all(f.is_red for f in kept)
    # The dominant red region is the injected Miami bias with its rate.
    top = max(kept, key=lambda f: f.llr)
    assert top.rect.intersects(miami.rect)
    assert abs(top.rho_in - miami.rate) < 0.08
