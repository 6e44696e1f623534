"""Figure 12 (Appendix B.2): directional "green" regions on LAR.

Paper claims: scanning for regions with significantly *higher* positive
rate inside than outside yields 17 non-overlapping green regions; the
most unfair is around San Jose, CA — 17,875 outcomes with 83% positive.

Our injected Northern-California region covers the Bay Area incl. San
Jose at rate 0.84, so the directional scan must recover it.
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


def test_fig12_green_regions(benchmark, lar, figure_dir):
    session = AuditSession(lar.coords, lar.y_pred)
    spec = AuditSpec(
        regions=RegionSpec.squares(100),
        n_worlds=N_WORLDS,
        alpha=ALPHA,
        direction="higher",
        seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )
    kept = select_non_overlapping(result.findings)
    worst = max(kept, key=lambda f: f.llr) if kept else None
    norcal = DEFAULT_BIAS_REGIONS[0]

    report(
        "Figure 12: green regions (higher rate inside)",
        [
            ("non-overlapping green regions", "17", str(len(kept))),
            (
                "most unfair green region",
                "San Jose, n=17875, rate 0.83",
                f"n={worst.n}, rate {worst.rho_in:.2f}" if worst else "-",
            ),
            (
                "hits injected NorCal region",
                "yes",
                "yes"
                if worst and worst.rect.intersects(norcal.rect)
                else "no",
            ),
        ],
    )

    regions_figure(
        lar, kept, figure_dir / "fig12_green_regions.svg",
        title="Fig 12: non-overlapping green regions",
        annotate=True,
    )

    assert not result.is_fair
    assert kept
    assert all(f.is_green for f in kept)
    assert worst.rect.intersects(norcal.rect)
    assert abs(worst.rho_in - norcal.rate) < 0.08
