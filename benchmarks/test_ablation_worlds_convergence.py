"""Ablation: Monte Carlo resolution (how many worlds are enough?).

The paper simulates w - 1 worlds and never varies w.  This ablation
checks what w buys: the per-region critical value (the "9.6" the paper
quotes) stabilises as worlds grow, and the *verdict* on clearly unfair
data is already correct at the minimum w for the chosen alpha.

Expected shape: critical values at 199 vs 999 worlds agree within a few
percent, verdicts agree exactly, and cost grows linearly (see also the
O(M.N.Q) bench).
"""

import numpy as np
from conftest import ALPHA, report

from repro import AuditSession, AuditSpec, RegionSpec


def test_worlds_convergence(benchmark, lar):
    rng = np.random.default_rng(0)
    sub = rng.choice(len(lar), size=20_000, replace=False)
    coords = lar.coords[sub]
    labels = lar.y_pred[sub]
    session = AuditSession(coords, labels)
    # A 25x12 grid over the subsample's box, built once for all runs.
    design = RegionSpec.grid(25, 12)
    session.region_set(design)

    def run():
        results = {}
        for n_worlds in (199, 399, 999):
            results[n_worlds] = session.run(
                AuditSpec(
                    regions=design, n_worlds=n_worlds, alpha=ALPHA,
                    seed=7,
                )
            ).result
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    crits = {w: r.critical_value for w, r in results.items()}
    sigs = {w: len(r.significant_findings) for w, r in results.items()}
    report(
        "Ablation: Monte Carlo worlds convergence (LAR 25x12)",
        [
            ("verdict stable across w", "yes",
             "yes" if all(not r.is_fair for r in results.values())
             else "NO"),
            ("critical value at w=200", "~9.6 in the paper's run",
             f"{crits[199]:.2f}"),
            ("critical value at w=400", "-", f"{crits[399]:.2f}"),
            ("critical value at w=1000", "-", f"{crits[999]:.2f}"),
            ("significant regions at w=200/400/1000", "stable",
             f"{sigs[199]}/{sigs[399]}/{sigs[999]}"),
        ],
    )

    assert all(not r.is_fair for r in results.values())
    # The critical value is an empirical quantile; with these sample
    # sizes the 199-world estimate must sit near the 999-world one.
    assert abs(crits[199] - crits[999]) / crits[999] < 0.35
    # Region identification stays consistent: the 999-world significant
    # set is contained in (or equal to) the coarser ones' top picks.
    top_199 = {f.index for f in results[199].significant_findings}
    top_999 = {f.index for f in results[999].significant_findings}
    overlap = len(top_199 & top_999) / max(len(top_999), 1)
    assert overlap > 0.7
