"""Figure 2: what the two methods each point at on LAR.

Paper claims (100x50 grid over LAR):
* MeanVar's most suspicious partition is tiny — n=5, all negative,
  local rate 0 — with a log-likelihood difference of only ~0.96, far
  below the ~9.6 significance cut at alpha=0.005;
* our framework's top region is dense — n~8,000, 84% positive — with a
  huge log-likelihood difference (~1000) and p < 0.005.

The bench reproduces the contrast: MeanVar's champion is sparse and
insignificant, SUL's champion is dense, matches the injected
Northern-California rate, and is significant.
"""

from conftest import ALPHA, N_WORLDS, report

from repro import (
    AuditSession,
    AuditSpec,
    GridPartitioning,
    RegionSpec,
    rank_contributions,
)
from repro.core import log_likelihood_ratio
from repro.datasets import DEFAULT_BIAS_REGIONS
from repro.viz import rect_overlay_figure, regions_figure


def test_fig02_suspicious_region_contrast(benchmark, lar, figure_dir):
    grid = GridPartitioning.regular(lar.bounds(), 100, 50)
    session = AuditSession(lar.coords, lar.y_pred)
    spec = AuditSpec(
        regions=RegionSpec.grid(100, 50), n_worlds=N_WORLDS, alpha=ALPHA,
        seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )

    # MeanVar's champion: largest contribution to the variance.
    contributions = rank_contributions(grid, lar.coords, lar.y_pred)
    mv_champion = contributions[0]
    mv_llr = float(
        log_likelihood_ratio(
            mv_champion.n, mv_champion.p, result.total_n, result.total_p
        )
    )

    best = result.best_finding
    norcal = DEFAULT_BIAS_REGIONS[0]

    report(
        "Figure 2: most suspicious region per method",
        [
            ("MeanVar champion n", "5", str(mv_champion.n)),
            ("MeanVar champion rate", "0.00", f"{mv_champion.rate:.2f}"),
            ("MeanVar champion log-LR", "~0.96", f"{mv_llr:.2f}"),
            (
                "significance cut (log-LR)",
                "~9.6",
                f"{result.critical_value:.2f}",
            ),
            ("SUL champion n", "~8000", str(best.n)),
            ("SUL champion rate", "0.84", f"{best.rho_in:.2f}"),
            ("SUL champion log-LR", "~1000", f"{best.llr:.1f}"),
            ("SUL champion p-value", "<0.005", f"{best.p_value:.4f}"),
        ],
    )

    rect_overlay_figure(
        lar,
        [mv_champion.rect],
        figure_dir / "fig02a_meanvar_champion.svg",
        title="Fig 2(a): most suspicious region by MeanVar",
        labels=[
            f"n={mv_champion.n} p={mv_champion.p} "
            f"rho={mv_champion.rate:.2f}"
        ],
    )
    regions_figure(
        lar,
        [best],
        figure_dir / "fig02b_sul_champion.svg",
        title="Fig 2(b): most unfair region by SUL",
        annotate=True,
    )

    # Shape assertions.
    assert mv_champion.n <= 10, "MeanVar champion must be sparse"
    assert mv_champion.rate in (0.0, 1.0), "and have an extreme rate"
    assert mv_llr < result.critical_value, (
        "MeanVar's pick must NOT be statistically significant"
    )
    assert best.n >= 500, "SUL champion must be dense"
    assert best.significant and best.p_value <= ALPHA
    assert best.llr > 10 * max(mv_llr, 1e-9)
    # The found region must be the injected Northern-California bias.
    assert best.rect.intersects(norcal.rect)
    assert abs(best.rho_in - norcal.rate) < 0.06
