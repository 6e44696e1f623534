"""Ablation: naive per-region testing vs the Monte Carlo scan.

The obvious alternative to the scan statistic is testing every region
separately (exact binomial vs the global rate) with a
Benjamini-Hochberg correction.  The paper's Figure 6 argument predicts
it stays miscalibrated on *fair but clustered* data: thousands of
dependent region tests on the data that suggested them.

The bench runs both procedures on 20 fair clustered datasets (size
check) and on the biased LAR data (power check).  Expected shape: the
scan's false-alarm rate respects alpha while the naive procedure's is
inflated, and both detect the genuine bias.
"""

from dataclasses import replace

import numpy as np
from conftest import ALPHA, N_WORLDS, report

from repro import (
    AuditSession,
    AuditSpec,
    GridPartitioning,
    RegionSpec,
    partition_region_set,
)
from repro.baselines import naive_audit
from repro.datasets import sample_florida_locations
from repro.geometry import Rect
from repro.index import RegionMembership


def test_naive_testing_vs_scan(benchmark, lar):
    rng = np.random.default_rng(0)
    # Fair but heavily clustered locations (the Figure 1a regime).
    coords = sample_florida_locations(4000, rng)
    grid = GridPartitioning.regular(Rect.bounding(coords), 15, 15)
    regions = partition_region_set(grid)
    member = RegionMembership(regions, coords)
    # The scan audits the same grid: bounds-less, it covers the data's
    # bounding box.
    spec = AuditSpec(
        regions=RegionSpec.grid(15, 15), n_worlds=N_WORLDS, alpha=ALPHA
    )
    n_datasets = 20

    def run():
        uncorrected_alarms = 0
        naive_alarms = 0
        scan_alarms = 0
        flagged_regions_uncorrected = 0
        for i in range(n_datasets):
            labels = (rng.random(4000) < 0.5).astype(np.int8)
            uncorrected = naive_audit(
                member, labels, alpha=ALPHA, adjust=False
            )
            uncorrected_alarms += not uncorrected.is_fair
            flagged_regions_uncorrected += len(uncorrected.flagged)
            naive = naive_audit(member, labels, alpha=ALPHA)
            naive_alarms += not naive.is_fair
            result = AuditSession(coords, labels).run(
                replace(spec, seed=1000 + i)
            ).result
            scan_alarms += not result.is_fair
        return (
            uncorrected_alarms,
            flagged_regions_uncorrected,
            naive_alarms,
            scan_alarms,
        )

    (
        uncorrected_alarms,
        flagged_regions_uncorrected,
        naive_alarms,
        scan_alarms,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    # Power check on genuinely biased data.
    lar_grid = GridPartitioning.regular(lar.bounds(), 25, 12)
    lar_regions = partition_region_set(lar_grid)
    lar_member = RegionMembership(lar_regions, lar.coords)
    naive_lar = naive_audit(lar_member, lar.y_pred, alpha=ALPHA)
    scan_lar = AuditSession(lar.coords, lar.y_pred).run(
        replace(spec, regions=RegionSpec.grid(25, 12), seed=1)
    ).result

    report(
        "Ablation: naive per-region testing vs MC scan "
        f"({n_datasets} fair datasets, {len(regions)} regions)",
        [
            (
                "fair datasets falsely flagged (uncorrected)",
                "inflated",
                str(uncorrected_alarms),
            ),
            (
                "regions falsely flagged (uncorrected, total)",
                "many",
                str(flagged_regions_uncorrected),
            ),
            (
                "fair datasets falsely flagged (naive + BH)",
                "<= scan-level",
                str(naive_alarms),
            ),
            (
                "fair datasets falsely flagged (MC scan)",
                f"~{ALPHA:g} rate",
                str(scan_alarms),
            ),
            ("detects LAR bias (naive + BH)", "yes",
             "yes" if not naive_lar.is_fair else "no"),
            ("detects LAR bias (scan)", "yes",
             "yes" if not scan_lar.is_fair else "no"),
        ],
    )

    # Uncorrected per-region testing is miscalibrated: the expected
    # false-dataset rate at alpha=0.005 would be ~0.1 datasets of 20;
    # anything >= 2 is an order-of-magnitude size inflation.
    assert uncorrected_alarms >= 2
    # ...while the Monte Carlo scan controls its size.
    assert scan_alarms <= 1
    assert naive_alarms >= scan_alarms
    # Both calibrated procedures keep full power on the real bias.
    assert not naive_lar.is_fair
    assert not scan_lar.is_fair
