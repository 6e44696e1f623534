"""Audit a classifier's *accuracy* for spatial fairness (Crime setting).

Reproduces the paper's equal-opportunity experiment (Section 4.2,
Figure 4): train a random forest on crime incidents, then test whether
its true positive rate is independent of location.  The synthetic data
degrades feature quality inside a "Hollywood" zone, so the model really
is less accurate there — the audit should find it.

Also demonstrates the predictive-equality (false-positive-rate) variant
the paper mentions as the other half of equal odds.

Run with::

    python examples/audit_crime_accuracy.py
"""

from repro import AuditSession, AuditSpec, RegionSpec
from repro.datasets import HOLLYWOOD_ZONE, generate_crime_dataset


def audit(session, measure: str, n_worlds: int = 199, seed: int = 1):
    """Audit one measure over the paper's 20x20 grid.

    The grid partitions the whole test set's bounding box; the measure
    picks the rows it scans (true positives for equal opportunity,
    true negatives for predictive equality).
    """
    spec = AuditSpec(
        regions=RegionSpec.grid(20, 20),
        measure=measure,
        n_worlds=n_worlds,
        seed=seed,
    )
    return session.run(spec).result


def main() -> None:
    pipeline = generate_crime_dataset(n_incidents=120_000, seed=0)
    test = pipeline.test
    print(test.describe())
    print(
        f"model accuracy = {pipeline.accuracy:.3f} "
        f"(paper: 0.78), global TPR = {pipeline.test_tpr:.3f} "
        f"(paper: 0.58)\n"
    )

    session = AuditSession(test.coords, test.y_pred, y_true=test.y_true)

    print("=== equal opportunity (is accuracy on serious crimes uniform?)")
    result = audit(session, "equal_opportunity")
    print(result.summary())
    hollywood = [
        f
        for f in result.significant_findings
        if f.rect.intersects(HOLLYWOOD_ZONE)
    ]
    print(
        f"\nsignificant partitions intersecting the degraded Hollywood "
        f"zone: {len(hollywood)} of {len(result.significant_findings)}"
    )

    print("\n=== predictive equality (false positive rate by location)")
    result_fpr = audit(session, "predictive_equality")
    print(result_fpr.summary())


if __name__ == "__main__":
    main()
