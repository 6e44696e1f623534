"""Audit a crime *forecast* for spatial fairness (Poisson scan).

The paper's introduction motivates this exact setting: "consider crime
forecasting, where an algorithm predicts how likely a crime is to occur
in a particular area.  It is desirable that the algorithm is spatially
fair in terms of its accuracy ... to avoid under- and over-policing."

Counts are not binary labels, so the Bernoulli scan does not apply;
the library's Poisson scan extension (Kulldorff's second model, from
the same reference [9] the paper builds on) audits observed-vs-forecast
counts directly.  The synthetic forecast is calibrated everywhere
except one under-predicted zone (under-policing risk) and one
over-predicted zone (over-policing risk) — the audit should find both,
and a calibrated control forecast should pass.

Run with::

    python examples/audit_crime_forecast.py
"""

from repro import AuditSession, AuditSpec, RegionSpec
from repro.datasets import (
    DEFAULT_MISCALIBRATIONS,
    generate_forecast_dataset,
)

#: Circular scan regions (Kulldorff geometry) over the city: 60
#: k-means centres, four radii each.
SPEC = AuditSpec(
    regions=RegionSpec.circles(60, (0.03, 0.06, 0.10, 0.15)),
    family="poisson",
    n_worlds=199,
    seed=1,
)


def main() -> None:
    data = generate_forecast_dataset(seed=0)
    print(
        f"{len(data)} areas, {data.total_observed:.0f} observed events, "
        f"{data.total_forecast:.0f} forecast\n"
    )
    session = AuditSession(data.coords, data.observed, forecast=data.forecast)

    print("=== miscalibrated forecast ===")
    result = session.run(SPEC).result
    print(result.summary())
    print("\ninjected miscalibrations:")
    for zone in DEFAULT_MISCALIBRATIONS:
        hits = [
            f
            for f in result.significant_findings
            if f.rect.intersects(zone.rect)
        ]
        print(
            f"  {zone.name} (factor {zone.factor}): "
            f"{len(hits)} significant regions intersect it"
        )

    print("\n=== calibrated control forecast ===")
    # The control shares the areas, hence the centres and circles.
    control = generate_forecast_dataset(zones=(), seed=0)
    control_session = AuditSession(
        control.coords, control.observed, forecast=control.forecast
    )
    control_result = control_session.run(SPEC).result
    print(control_result.summary())


if __name__ == "__main__":
    main()
