"""Extension experiment: the intro's crime-forecasting motivation.

The paper's introduction (Section 1) motivates spatial fairness for
crime forecasting — predicted rates should match observed rates
everywhere to avoid under-/over-policing — but its evaluation only
covers binary outcomes.  This bench exercises the library's Poisson
scan extension on that exact scenario: a forecast calibrated everywhere
except one under-predicted zone and one over-predicted zone.

Expected shape: the audit flags both zones (with the right excess /
deficit direction) and passes a perfectly calibrated control forecast.
"""

from conftest import ALPHA, N_WORLDS, report

from repro import AuditSession, AuditSpec, RegionSpec
from repro.datasets import (
    DEFAULT_MISCALIBRATIONS,
    generate_forecast_dataset,
)


def test_ext_poisson_forecast_audit(benchmark, figure_dir):
    data = generate_forecast_dataset(seed=0)
    control = generate_forecast_dataset(zones=(), seed=0)
    # Both forecasts share their areas, so the 60 k-means centres
    # (centers_seed 0) and the circles around them are the same.
    spec = AuditSpec(
        regions=RegionSpec.circles(60, (0.03, 0.06, 0.10, 0.15)),
        family="poisson",
        n_worlds=N_WORLDS,
        alpha=ALPHA,
        seed=1,
    )

    def run():
        return tuple(
            AuditSession(d.coords, d.observed, forecast=d.forecast)
            .run(spec)
            .result
            for d in (data, control)
        )

    biased, fair = benchmark.pedantic(run, rounds=1, iterations=1)

    under, over = DEFAULT_MISCALIBRATIONS
    under_hits = [
        f for f in biased.significant_findings
        if f.rect.intersects(under.rect) and f.direction == 1
    ]
    over_hits = [
        f for f in biased.significant_findings
        if f.rect.intersects(over.rect) and f.direction == -1
    ]

    report(
        "Extension: Poisson forecast audit (intro motivation)",
        [
            ("miscalibrated verdict", "unfair",
             "fair" if biased.is_fair else "unfair"),
            ("under-predicted zone found (excess)", "yes",
             f"yes ({len(under_hits)} regions)" if under_hits else "NO"),
            ("over-predicted zone found (deficit)", "yes",
             f"yes ({len(over_hits)} regions)" if over_hits else "NO"),
            ("calibrated control verdict", "fair",
             "fair" if fair.is_fair else "UNFAIR"),
            ("control significant regions", "0",
             str(len(fair.significant_findings))),
        ],
    )

    assert not biased.is_fair
    assert under_hits
    assert over_hits
    assert fair.is_fair
    assert not fair.significant_findings
