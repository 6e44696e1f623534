"""Audit mortgage approvals for spatial statistical parity (LAR setting).

Reproduces the workflow of Sections 4.2-4.3 of the paper on the
LAR-like synthetic dataset, driven entirely through the declarative
façade: one :class:`repro.AuditSession` binds the dataset, and every
experiment is an :class:`repro.AuditSpec` run against it — so the
square-scan geometry is materialised and indexed exactly once even
though three audits (two-sided, red, green) scan it.

1. statistical-parity audit over a high-resolution grid partitioning,
   comparing our significant partitions against MeanVar's top
   contributors (Figures 2 and 3);
2. the unrestricted square-region scan around k-means centres with
   non-overlapping selection (Figure 5);
3. directional "red"/"green" scans (Figures 11 and 12), batched with
   ``run_many`` over the shared index.

Run with::

    python examples/audit_mortgage.py
"""

from dataclasses import replace

import repro
from repro import GridPartitioning, select_non_overlapping, top_contributors
from repro.datasets import generate_lar_like

N_WORLDS = 199
ALPHA = 0.005

#: The paper's unrestricted scan: squares of the 20 paper side lengths
#: around 100 k-means centres.
SQUARES = repro.RegionSpec.squares(100, centers_seed=0)


def partition_audit(session, data) -> None:
    """Grid-partition audit vs MeanVar contributors (Figures 2-3)."""
    print("--- partition audit (50x25 grid) ---")
    report = session.run(
        repro.AuditSpec(
            regions=repro.RegionSpec.grid(50, 25),
            n_worlds=N_WORLDS,
            alpha=ALPHA,
            seed=1,
        )
    )
    print(report.result.summary())

    print("\nMeanVar's most suspicious partitions (same grid):")
    grid = GridPartitioning.regular(data.bounds(), 50, 25)
    for contrib in top_contributors(grid, data.coords, data.y_pred, k=5):
        print(
            f"  cell {contrib.cell_index}: n={contrib.n} p={contrib.p} "
            f"rate={contrib.rate:.2f} contribution={contrib.contribution:.2e}"
        )
    print(
        "MeanVar surfaces sparse all-negative/all-positive partitions;\n"
        "the scan surfaces dense, statistically significant ones.\n"
    )


def square_scan(session) -> None:
    """Unrestricted square-region scan (Figure 5)."""
    print("--- unrestricted square regions ---")
    report = session.run(
        repro.AuditSpec(
            regions=SQUARES, n_worlds=N_WORLDS, alpha=ALPHA, seed=1
        )
    )
    print(report.result.summary())
    kept = select_non_overlapping(report.result)
    print(f"\nnon-overlapping unfair regions ({len(kept)}):")
    for finding in kept:
        print("  " + finding.describe())
    print()


def directional_scans(session) -> None:
    """Red (lower-inside) and green (higher-inside) scans (Figs 11-12).

    Both specs reuse the square scan's membership index and differ only
    in ``direction`` — ``run_many`` executes them over the shared
    session caches.
    """
    base = repro.AuditSpec(
        regions=SQUARES, n_worlds=N_WORLDS, alpha=ALPHA, seed=1
    )
    reports = session.run_many(
        [replace(base, direction=d) for d in ("lower", "higher")]
    )
    for name, report in zip(("red", "green"), reports):
        kept = select_non_overlapping(report.result)
        print(
            f"--- {name} regions: {len(kept)} non-overlapping, "
            f"verdict {'FAIR' if report.is_fair else 'UNFAIR'}"
        )
        for finding in kept[:3]:
            print("  " + finding.describe())
    print()


def main() -> None:
    data = generate_lar_like(n_applications=60_000, n_tracts=15_000, seed=0)
    print(data.describe(), "\n")
    session = repro.AuditSession(data.coords, data.y_pred)
    partition_audit(session, data)
    square_scan(session)
    directional_scans(session)
    print(
        f"(session built {session.index_builds} membership indexes "
        "for 4 audits)"
    )


if __name__ == "__main__":
    main()
