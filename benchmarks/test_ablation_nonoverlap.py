"""Ablation: non-overlap selection policies (DESIGN.md Section 5).

The paper keeps, per centre in sequence, the highest-statistic region
("per-center").  A natural alternative keeps regions globally
best-first ("greedy").  Both must produce disjoint sets; greedy always
retains the single highest-LLR region, while per-center can trade it
away for earlier centres.  The bench compares counts and total LLR.
"""

from conftest import ALPHA, N_WORLDS, report

import repro
from repro import select_non_overlapping


def test_nonoverlap_policies(benchmark, lar):
    result = (
        repro.audit(lar.coords, lar.y_pred)
        .squares(100)
        .worlds(N_WORLDS)
        .alpha(ALPHA)
        .seed(1)
        .run()
        .result
    )

    def run():
        per_center = select_non_overlapping(
            result.findings, policy="per-center"
        )
        greedy = select_non_overlapping(result.findings, policy="greedy")
        return per_center, greedy

    per_center, greedy = benchmark.pedantic(run, rounds=1, iterations=1)

    report(
        "Ablation: non-overlap selection",
        [
            ("per-center kept", "(paper: 28)", str(len(per_center))),
            ("greedy kept", "-", str(len(greedy))),
            (
                "per-center total LLR",
                "-",
                f"{sum(f.llr for f in per_center):.0f}",
            ),
            ("greedy total LLR", "-", f"{sum(f.llr for f in greedy):.0f}"),
        ],
    )

    for kept in (per_center, greedy):
        assert kept
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert not a.rect.intersects(b.rect)
    # Greedy always retains the global champion.
    champion = max(
        (f for f in result.findings if f.significant),
        key=lambda f: f.llr,
    )
    assert greedy[0].index == champion.index
