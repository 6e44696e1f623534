"""Extension ablation: circular vs square scan regions on LAR.

The paper scans squares; Kulldorff's original statistic scans circles.
This bench runs both geometries with identical centres and comparable
extents and checks they agree on the verdict and on where the strongest
unfairness sits — the framework is shape-agnostic, as Section 3's
"predetermined set of regions" formulation promises.
"""

import numpy as np
from conftest import ALPHA, N_WORLDS, report

from repro import (
    AuditSession,
    AuditSpec,
    RegionSpec,
    paper_side_lengths,
    select_non_overlapping,
)
from repro.datasets import DEFAULT_BIAS_REGIONS
from repro.viz import regions_figure


def test_ext_circular_vs_square_regions(benchmark, lar, figure_dir):
    # Both designs fit the same 100 k-means centres (centers_seed 0);
    # the squares take the paper's 20 sides.
    squares = RegionSpec.squares(100)
    # Equal-area circles: r = side / sqrt(pi).
    radii = paper_side_lengths() / np.sqrt(np.pi)
    circles = RegionSpec.circles(100, tuple(radii))
    session = AuditSession(lar.coords, lar.y_pred)

    def run():
        return tuple(
            session.run(
                AuditSpec(
                    regions=design, n_worlds=N_WORLDS, alpha=ALPHA, seed=1
                )
            ).result
            for design in (squares, circles)
        )

    sq, ci = benchmark.pedantic(run, rounds=1, iterations=1)
    sq_best = sq.best_finding
    ci_best = ci.best_finding
    same_center = sq_best.center_id == ci_best.center_id

    report(
        "Extension: circular vs square scan regions (LAR)",
        [
            ("square verdict / significant", "unfair",
             f"{'unfair' if not sq.is_fair else 'fair'} / "
             f"{len(sq.significant_findings)}"),
            ("circle verdict / significant", "unfair",
             f"{'unfair' if not ci.is_fair else 'fair'} / "
             f"{len(ci.significant_findings)}"),
            ("same champion centre", "yes",
             "yes" if same_center else "no"),
            ("square champion LLR", "-", f"{sq_best.llr:.0f}"),
            ("circle champion LLR", "-", f"{ci_best.llr:.0f}"),
        ],
    )

    kept = select_non_overlapping(ci.findings)
    regions_figure(
        lar, kept, figure_dir / "ext_circular_regions.svg",
        title="Extension: non-overlapping circular unfair regions",
        annotate=True,
    )

    assert not sq.is_fair
    assert not ci.is_fair
    # Both geometries locate the dominant injected bias.
    norcal = DEFAULT_BIAS_REGIONS[0].rect
    assert sq_best.rect.intersects(norcal)
    assert ci_best.rect.intersects(norcal)
    # Champion LLRs are on the same scale (equal-area regions).
    assert 0.5 < ci_best.llr / sq_best.llr < 2.0
