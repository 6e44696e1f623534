"""Audit a multi-class dispatcher with the multinomial scan.

Binary measures cover the paper's experiments, but many deployed
systems emit more than two outcomes — triage levels, priority classes,
credit grades.  Spatial fairness then means the *class distribution*
is location-independent, and the right tool is the multinomial spatial
scan (the paper's reference [6]).

This demo synthesises an emergency-dispatch model that assigns each
call one of three priorities.  Citywide the model uses a 20/45/35
split, but in one district it systematically downgrades calls
(60/30/10).  The audit should reject fairness and place its strongest
evidence in that district; a control run without the skew should pass.

Run with::

    python examples/audit_triage_categories.py
"""

import numpy as np

from repro import AuditSession, AuditSpec, Rect, RegionSpec

PRIORITIES = ("high", "medium", "low")
#: The city's bounding box, (min_x, min_y, max_x, max_y).
CITY = (0.0, 0.0, 10.0, 10.0)
SKEWED_DISTRICT = Rect(1.0, 1.0, 4.0, 4.0)
BASE_SPLIT = np.array([0.20, 0.45, 0.35])
SKEWED_SPLIT = np.array([0.60, 0.30, 0.10])


def synthesize_calls(n=12_000, skewed=True, seed=0):
    """Calls clustered around a few hotspots, with optional skew."""
    rng = np.random.default_rng(seed)
    hotspots = np.array([[2.5, 2.5], [7.0, 3.0], [5.0, 8.0], [8.5, 8.0]])
    which = rng.integers(0, len(hotspots), size=n)
    coords = hotspots[which] + rng.normal(scale=1.1, size=(n, 2))
    np.clip(coords, 0.0, 10.0, out=coords)
    labels = np.empty(n, dtype=np.int64)
    in_district = SKEWED_DISTRICT.contains(coords)
    split = SKEWED_SPLIT if skewed else BASE_SPLIT
    labels[in_district] = rng.choice(3, size=int(in_district.sum()), p=split)
    labels[~in_district] = rng.choice(
        3, size=int((~in_district).sum()), p=BASE_SPLIT
    )
    return coords, labels


def run_audit(coords, labels):
    spec = AuditSpec(
        regions=RegionSpec.grid(8, 8, bounds=CITY),
        family="multinomial",
        n_worlds=199,
        alpha=0.005,
        seed=1,
    )
    return AuditSession(coords, labels, n_classes=3).run(spec).result


def main() -> None:
    print("=== dispatcher with a downgrading district ===")
    coords, labels = synthesize_calls(skewed=True)
    result = run_audit(coords, labels)
    print(result.summary())
    in_district = [
        f
        for f in result.significant_findings
        if f.rect.intersects(SKEWED_DISTRICT)
    ]
    print(
        f"\nsignificant partitions touching the skewed district: "
        f"{len(in_district)} of {len(result.significant_findings)}"
    )
    if result.best_finding is not None:
        rates = ", ".join(
            f"{name}={rate:.2f}"
            for name, rate in zip(
                PRIORITIES, result.best_finding.class_rates
            )
        )
        print(f"strongest evidence distribution: {rates}")

    print("\n=== control dispatcher (no skew) ===")
    coords, labels = synthesize_calls(skewed=False, seed=1)
    control = run_audit(coords, labels)
    print(control.summary())


if __name__ == "__main__":
    main()
