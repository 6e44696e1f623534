"""Figure 5 + Section 4.3: unrestricted square regions on LAR.

Paper claims:
* 2,000 squares are scanned — 100 k-means centres x 20 side lengths
  (0.1 to 2.0 degrees);
* 700 regions are unfair at the 0.005 level;
* the per-centre non-overlap selection keeps 28 regions of widely
  varying area and observation count (e.g. a 0.1-degree square near
  Tampa with 473 observations next to a 1-degree Orlando square with
  4,783).
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


def test_fig05_unrestricted_square_scan(benchmark, lar, figure_dir):
    # 100 k-means centres (seed 0) x the paper's 20 side lengths.
    session = AuditSession(lar.coords, lar.y_pred)
    spec = AuditSpec(
        regions=RegionSpec.squares(100), n_worlds=N_WORLDS, alpha=ALPHA,
        seed=1,
    )
    result = benchmark.pedantic(
        lambda: session.run(spec).result, rounds=1, iterations=1
    )
    sig = result.significant_findings
    kept = select_non_overlapping(result.findings)
    kept_sizes = sorted(f.n for f in kept)
    kept_sides = sorted(f.rect.width for f in kept)

    report(
        "Figure 5: unrestricted square regions",
        [
            ("regions scanned", "2000", str(result.n_regions)),
            ("verdict", "unfair", "fair" if result.is_fair else "unfair"),
            ("unfair regions", "700", str(len(sig))),
            ("non-overlapping kept", "28", str(len(kept))),
            (
                "kept sizes n (min..max)",
                "473..4783 (varying)",
                f"{kept_sizes[0]}..{kept_sizes[-1]}" if kept else "-",
            ),
            (
                "kept sides deg (min..max)",
                "0.1..2.0 (varying)",
                f"{kept_sides[0]:.1f}..{kept_sides[-1]:.1f}"
                if kept else "-",
            ),
        ],
    )

    regions_figure(
        lar, kept, figure_dir / "fig05_nonoverlapping_regions.svg",
        title="Fig 5: non-overlapping unfair regions",
        annotate=True,
    )

    assert result.n_regions == 2000
    assert not result.is_fair
    assert len(sig) >= 50
    assert len(kept) >= 5
    # Non-overlap invariant.
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            assert not a.rect.intersects(b.rect)
    # Varying sizes, as in the paper's Figure 5 narrative.
    assert kept_sides[-1] > 2 * kept_sides[0]
    # The injected strong-bias regions are among the evidence.
    for b in DEFAULT_BIAS_REGIONS:
        assert any(f.rect.intersects(b.rect) for f in kept), b.name
