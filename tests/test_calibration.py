"""Validity gate for the Monte Carlo null: calibration and exactness.

Two checks, across all three outcome families:

* **calibration** — on seeded null data (outcomes independent of
  location), every cell of family x {grid (region-level worlds),
  squares, circles (point-level worlds)} x {fixed, adaptive budget}
  rejects at most ``alpha + 2 sd`` of its datasets, and no p-value
  falls below ``1 / (W + 1)``.  Poisson points-pass worlds take one of
  two draws by the mean events per area, so the squares and circles
  cells run on dense counts (~4 per area, the multinomial) and again
  on sparse ones (~2 per area, the alias table);
* **exactness** — the region-level null maxima of a grid that leaves
  points uncovered have the same distribution as the point-level ones
  (two-sample Kolmogorov–Smirnov), the latter forced by treating the
  design as overlapping.

The seeds are fixed once.  A failing cell is a finding about the
simulation, never a reason to pick other seeds.  The module carries
the ``calibration`` marker so CI can report the gate on its own
(``pytest -m calibration``).
"""

import numpy as np
import pytest
from scipy import stats

from repro import AuditSession, AuditSpec, RegionSpec
from repro.engine import MonteCarloEngine
from repro.index import RegionMembership

from tests.test_engine import make_kernel

pytestmark = pytest.mark.calibration

FAMILIES = ["bernoulli", "poisson", "multinomial"]
DESIGNS = {
    "grid": RegionSpec.grid(4, 4, bounds=(0, 0, 1, 1)),
    "squares": RegionSpec.squares(6, sides=(0.2, 0.4)),
    "circles": RegionSpec.circles(6, radii=(0.1, 0.25)),
}
BUDGETS = {
    "fixed": "fixed",
    "adaptive": {"kind": "adaptive", "initial": 8},
}

#: Null datasets per family, points per dataset, worlds per audit.
N_DATASETS = 100
N_POINTS = 200
WORLDS = 39
ALPHA = 0.05


#: Per-area forecast range of the sparse Poisson null datasets: about
#: 2 events per area, under the 3 the alias draw takes.
SPARSE_FORECAST = (0.5, 3.5)


def null_session(family: str, index: int) -> AuditSession:
    """Seeded null dataset ``index`` of ``family``: uniform locations,
    outcomes drawn independently of them."""
    rng = np.random.default_rng([FAMILIES.index(family), index, 17])
    coords = rng.random((N_POINTS, 2))
    if family == "bernoulli":
        return AuditSession(
            coords, (rng.random(N_POINTS) < 0.4).astype(np.int8)
        )
    if family == "poisson":
        forecast = rng.uniform(2.0, 6.0, N_POINTS)
        observed = rng.poisson(forecast).astype(np.float64)
        return AuditSession(coords, observed, forecast=forecast)
    classes = rng.choice(3, N_POINTS, p=[0.5, 0.3, 0.2])
    return AuditSession(coords, classes, n_classes=3)


def sparse_poisson_session(index: int) -> AuditSession:
    """Seeded sparse Poisson null dataset ``index``."""
    rng = np.random.default_rng([len(FAMILIES), index, 17])
    coords = rng.random((N_POINTS, 2))
    forecast = rng.uniform(*SPARSE_FORECAST, N_POINTS)
    observed = rng.poisson(forecast).astype(np.float64)
    return AuditSession(coords, observed, forecast=forecast)


def audit(session: AuditSession, regions, family, index, policy):
    return session.run(AuditSpec(
        regions=regions, family=family, n_worlds=WORLDS, alpha=ALPHA,
        seed=index, budget=policy, workers=1,
    )).result


@pytest.fixture(scope="module")
def null_reports():
    """``{(family, design, budget): [AuditResult, ...]}`` over every
    null dataset."""
    out: dict = {}
    for family in FAMILIES:
        for index in range(N_DATASETS):
            session = null_session(family, index)
            for design, regions in DESIGNS.items():
                for budget, policy in BUDGETS.items():
                    out.setdefault((family, design, budget), []).append(
                        audit(session, regions, family, index, policy)
                    )
    for index in range(N_DATASETS):
        session = sparse_poisson_session(index)
        for design in ("squares", "circles"):
            for budget, policy in BUDGETS.items():
                out.setdefault(("sparse", design, budget), []).append(
                    audit(session, DESIGNS[design], "poisson", index, policy)
                )
    return out


def check_cell(results) -> None:
    rejected = sum(not r.is_fair for r in results)
    sd = np.sqrt(ALPHA * (1 - ALPHA) / len(results))
    assert rejected / len(results) <= ALPHA + 2 * sd
    for r in results:
        assert r.p_value >= 1 / (r.n_worlds + 1) - 1e-12
        assert r.p_value >= 1 / (WORLDS + 1) - 1e-12


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("family", FAMILIES)
def test_false_positive_rate_and_p_value_floor(
    null_reports, family, design, budget
):
    check_cell(null_reports[family, design, budget])


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("design", ["circles", "squares"])
def test_sparse_poisson_cells(null_reports, design, budget):
    check_cell(null_reports["sparse", design, budget])


def test_grid_designs_draw_region_level_worlds():
    # The gate above covers both passes only if the grid really is
    # disjoint on the null data and the squares and circles are not.
    session = null_session("bernoulli", 0)
    spec = AuditSpec(regions=DESIGNS["grid"], n_worlds=WORLDS)
    assert session.resolve(spec).member.disjoint
    for design in ("squares", "circles"):
        spec = AuditSpec(regions=DESIGNS[design], n_worlds=WORLDS)
        assert not session.resolve(spec).member.disjoint


def test_poisson_cells_cover_both_points_draws():
    # The dense Poisson cells draw rng.multinomial worlds and the
    # sparse ones alias-table worlds, on every dataset.
    spec = AuditSpec(
        regions=DESIGNS["squares"], family="poisson", n_worlds=WORLDS
    )
    for index in range(N_DATASETS):
        dense = null_session("poisson", index).resolve(spec).kernel
        sparse = sparse_poisson_session(index).resolve(spec).kernel
        assert not dense._draws_events() and sparse._draws_events()


@pytest.mark.parametrize(
    "family, positive_rate",
    [pytest.param(family, 0.4, id=family) for family in FAMILIES]
    # Few positives: each unit's binomial table row is short and
    # lopsided about its mode.
    + [pytest.param("bernoulli", 0.03, id="bernoulli-skewed")],
)
def test_region_level_maxima_match_point_level(
    family, positive_rate, monkeypatch
):
    rng = np.random.default_rng([FAMILIES.index(family), 29])
    coords = rng.random((300, 2))
    labels = (rng.random(300) < positive_rate).astype(np.int8)
    forecast = rng.uniform(2.0, 6.0, 300)
    counts = (rng.poisson(forecast).astype(np.float64), forecast)
    classes = rng.choice(3, 300, p=[0.5, 0.3, 0.2])
    # A 3x3 grid over the lower-left 0.75 x 0.75: ~44% of the points
    # sit in no cell, so the remainder unit carries real mass.
    regions = RegionSpec.grid(3, 3, bounds=(0, 0, 0.75, 0.75)).build(
        coords
    )

    def maxima(seed):
        member = RegionMembership(regions, coords)
        kernel = make_kernel(family, coords, labels, counts, classes)
        return MonteCarloEngine().null_distribution_multi(
            [member], kernel, 4000, seed=seed
        )[0]

    assert RegionMembership(regions, coords).disjoint
    region_level = maxima(1)
    monkeypatch.setattr(RegionMembership, "disjoint", False)
    point_level = maxima(2)
    assert stats.ks_2samp(region_level, point_level).pvalue > 0.001
