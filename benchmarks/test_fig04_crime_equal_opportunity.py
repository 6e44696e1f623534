"""Figure 4: Crime at a 20x20 partitioning, equal-opportunity measure.

Paper claims:
* the random forest reaches accuracy 0.78; the retained true-positive
  subset has 61,266 entries with global TPR 0.58;
* the framework declares the outcomes spatially unfair and identifies 5
  significant partitions; a top one sits in Hollywood with ~3,000
  outcomes and local TPR ~0.51 (serious crimes under-recognised);
* the top-5 MeanVar partitions are sparse single-false-positive cells.
"""

from conftest import ALPHA, N_WORLDS, report

from repro import (
    MEASURES,
    AuditSession,
    AuditSpec,
    GridPartitioning,
    RegionSpec,
    top_contributors,
)
from repro.datasets import HOLLYWOOD_ZONE
from repro.viz import rect_overlay_figure, regions_figure


def test_fig04_crime_equal_opportunity(
    benchmark, crime_pipeline, figure_dir
):
    test = crime_pipeline.test
    session = AuditSession(test.coords, test.y_pred, y_true=test.y_true)
    # The grid partitions the whole test set's box; the measure audits
    # its true-positive slice.
    spec = AuditSpec(
        regions=RegionSpec.grid(20, 20), measure="equal_opportunity",
        n_worlds=N_WORLDS, alpha=ALPHA, seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )
    sig = result.significant_findings
    # MeanVar ranks the same slice on the same grid.
    coords, outcomes = MEASURES["equal_opportunity"].extract(
        test.coords, test.y_pred, test.y_true
    )
    grid = GridPartitioning.regular(test.bounds(), 20, 20)
    top5 = top_contributors(grid, coords, outcomes, k=5)

    in_zone = [f for f in sig if f.rect.intersects(HOLLYWOOD_ZONE)]
    best = sig[0] if sig else None

    report(
        "Figure 4: Crime 20x20, equal opportunity",
        [
            ("model accuracy", "0.78", f"{crime_pipeline.accuracy:.2f}"),
            ("global TPR", "0.58", f"{result.global_rate:.2f}"),
            ("eq-opp subset size", "61,266", str(result.total_n)),
            ("verdict", "unfair", "fair" if result.is_fair else "unfair"),
            ("significant partitions", "5", str(len(sig))),
            ("significant in Hollywood zone", "(Hollywood)",
             f"{len(in_zone)}/{len(sig)}"),
            (
                "top partition local TPR",
                "0.51 (< global)",
                f"{best.rho_in:.2f}" if best else "-",
            ),
            (
                "top-5 MeanVar partition sizes",
                "1 each",
                ",".join(str(c.n) for c in top5),
            ),
        ],
    )

    regions_figure(
        test, sig, figure_dir / "fig04a_crime_significant.svg",
        title="Fig 4(a): significant partitions (Crime, TPR)",
    )
    rect_overlay_figure(
        test,
        [c.rect for c in top5],
        figure_dir / "fig04b_crime_meanvar_top5.svg",
        title="Fig 4(b): top-5 MeanVar partitions (Crime)",
    )

    # Shape assertions.
    assert 0.70 <= crime_pipeline.accuracy <= 0.85
    assert 0.45 <= result.global_rate <= 0.70
    assert not result.is_fair
    assert sig
    assert len(in_zone) / len(sig) >= 0.8
    assert best.rho_in < result.global_rate  # under-recognition inside
    assert best.direction == -1
    # MeanVar's picks are sparse degenerate cells.
    assert all(c.n <= 10 for c in top5)
