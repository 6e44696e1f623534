"""Unit tests for :mod:`repro.spec`: construction-time validation,
lossless dict/JSON round-tripping, and region-design materialisation."""

import numpy as np
import pytest

from repro.budget import BudgetPolicy
from repro.geometry import paper_side_lengths
from repro.spec import SPEC_VERSION, AuditSpec, RegionSpec


class TestRegionSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="regions.kind"):
            RegionSpec(kind="hexagons")

    def test_grid_needs_both_axes(self):
        with pytest.raises(ValueError, match="regions.ny"):
            RegionSpec(kind="grid", nx=5)
        with pytest.raises(ValueError, match="regions.nx"):
            RegionSpec(kind="grid", nx=0, ny=5)

    def test_grid_rejects_scan_params(self):
        with pytest.raises(ValueError, match="n_centers/sides/radii"):
            RegionSpec(kind="grid", nx=5, ny=5, n_centers=10)

    def test_scan_rejects_grid_params(self):
        with pytest.raises(ValueError, match="no nx/ny"):
            RegionSpec(kind="squares", n_centers=10, nx=5)

    def test_squares_need_centers(self):
        with pytest.raises(ValueError, match="regions.n_centers"):
            RegionSpec(kind="squares")

    def test_squares_reject_radii(self):
        with pytest.raises(ValueError, match="regions.radii"):
            RegionSpec(kind="squares", n_centers=5, radii=(0.1,))

    def test_circles_need_radii(self):
        with pytest.raises(ValueError, match="regions.radii"):
            RegionSpec(kind="circles", n_centers=5)

    def test_circles_reject_sides(self):
        with pytest.raises(ValueError, match="regions.sides"):
            RegionSpec(kind="circles", n_centers=5, radii=(0.1,),
                       sides=(0.2,))

    def test_nonpositive_geometry(self):
        with pytest.raises(ValueError, match="positive"):
            RegionSpec(kind="squares", n_centers=5, sides=(0.5, -1.0))
        with pytest.raises(ValueError, match="positive"):
            RegionSpec(kind="circles", n_centers=5, radii=(0.0,))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_geometry(self, value):
        with pytest.raises(ValueError, match="^regions.sides: "):
            RegionSpec.squares(5, sides=(value, 0.2))
        with pytest.raises(ValueError, match="^regions.radii: "):
            RegionSpec.circles(5, radii=(0.1, value))
        with pytest.raises(ValueError, match="^regions.sides: "):
            RegionSpec.from_dict(
                {"kind": "squares", "n_centers": 5, "sides": [value]}
            )

    def test_radius_with_infinite_square(self):
        # 1e200**2 overflows; the membership build would raise an
        # untyped OverflowError.
        with pytest.raises(ValueError, match="^regions.radii: .*square"):
            RegionSpec.circles(5, radii=(0.1, 1e200))
        with pytest.raises(ValueError, match="^regions.radii: "):
            RegionSpec.from_dict(
                {"kind": "circles", "n_centers": 5, "radii": [1e155]}
            )
        assert RegionSpec.circles(5, radii=(1e150,)).radii == (1e150,)

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="regions.bounds"):
            RegionSpec(kind="grid", nx=2, ny=2, bounds=(0, 0, 1))
        with pytest.raises(ValueError, match="min exceeds max"):
            RegionSpec(kind="grid", nx=2, ny=2, bounds=(1, 0, 0, 1))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^regions.bounds: .*finite"):
                RegionSpec.grid(3, 3, bounds=(bad, 0, 1, 1))

    def test_grid_rejects_centers_seed(self):
        # centers_seed is meaningless for grids; accepting it would
        # also break the lossless to_dict round-trip.
        with pytest.raises(ValueError, match="regions.centers_seed"):
            RegionSpec(kind="grid", nx=2, ny=2, centers_seed=3)

    def test_scan_kinds_reject_bounds(self):
        # A scan's centres come from the data; silently ignoring a
        # bounds restriction would be a footgun.
        with pytest.raises(ValueError, match="regions.bounds"):
            RegionSpec(kind="squares", n_centers=4,
                       bounds=(0.0, 0.0, 0.1, 0.1))
        with pytest.raises(ValueError, match="regions.bounds"):
            RegionSpec(kind="circles", n_centers=4, radii=(0.1,),
                       bounds=(0.0, 0.0, 0.1, 0.1))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown field"):
            RegionSpec.from_dict({"kind": "grid", "nx": 2, "ny": 2,
                                  "shape": "round"})

    def test_from_dict_missing_kind_is_a_value_error(self):
        # Must surface as validation, not a TypeError from __init__.
        with pytest.raises(ValueError, match="regions.kind"):
            RegionSpec.from_dict({"nx": 10, "ny": 10})
        with pytest.raises(ValueError, match="regions.kind"):
            AuditSpec.from_dict({"regions": {"nx": 10, "ny": 10}})

    def test_sides_coerced_to_float_tuples(self):
        spec = RegionSpec.squares(5, sides=[1, 2])
        assert spec.sides == (1.0, 2.0)
        assert isinstance(spec.sides, tuple)


class TestRegionSpecBuild:
    def test_grid_uses_explicit_bounds(self, unit_coords, unit_regions):
        spec = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))
        built = spec.build(unit_coords)
        assert len(built) == len(unit_regions) == spec.n_regions_hint
        assert [r.rect for r in built] == [r.rect for r in unit_regions]

    def test_grid_defaults_to_data_bounds(self, unit_coords):
        built = RegionSpec.grid(4).build(unit_coords)
        assert len(built) == 16
        lo = unit_coords.min(axis=0)
        assert built[0].rect.min_x == pytest.approx(float(lo[0]))

    def test_squares_default_sides_are_paper_sides(self, unit_coords):
        spec = RegionSpec.squares(7, centers_seed=3)
        built = spec.build(unit_coords)
        assert len(built) == 7 * len(paper_side_lengths())
        assert len(built) == spec.n_regions_hint

    def test_circles(self, unit_coords):
        spec = RegionSpec.circles(4, radii=(0.1, 0.25))
        built = spec.build(unit_coords)
        assert len(built) == 8 == spec.n_regions_hint
        assert built[0].kind == "circle"

    def test_build_is_deterministic(self, unit_coords):
        spec = RegionSpec.squares(6, centers_seed=1)
        a = spec.build(unit_coords)
        b = spec.build(unit_coords)
        assert [r.rect for r in a] == [r.rect for r in b]

    def test_hashable_cache_key(self):
        cache = {RegionSpec.grid(5, 5): "hit"}
        assert cache[RegionSpec.grid(5, 5)] == "hit"


class TestAuditSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            AuditSpec(regions=RegionSpec.grid(5, 5), family="gaussian")

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            AuditSpec(regions=RegionSpec.grid(5, 5), measure="parity")

    def test_measure_family_mismatch(self):
        with pytest.raises(ValueError, match="applies to families"):
            AuditSpec(regions=RegionSpec.grid(5, 5), family="poisson",
                      measure="equal_opportunity")

    def test_multinomial_rejects_direction(self):
        with pytest.raises(ValueError, match="two-sided"):
            AuditSpec(regions=RegionSpec.grid(5, 5),
                      family="multinomial", direction="lower")

    def test_direction_aliases_canonicalised(self):
        spec = AuditSpec(regions=RegionSpec.grid(5, 5), direction="red")
        assert spec.direction == "lower"
        assert AuditSpec(regions=RegionSpec.grid(5, 5),
                         direction=None).direction == "two-sided"

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            AuditSpec(regions=RegionSpec.grid(5, 5), direction="up")

    def test_alpha_range(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="alpha"):
                AuditSpec(regions=RegionSpec.grid(5, 5), alpha=alpha)

    def test_n_worlds_floor(self):
        with pytest.raises(ValueError, match="n_worlds"):
            AuditSpec(regions=RegionSpec.grid(5, 5), n_worlds=0)

    def test_unknown_correction(self):
        with pytest.raises(ValueError, match="correction"):
            AuditSpec(regions=RegionSpec.grid(5, 5),
                      correction="bonferroni")

    def test_workers_floor(self):
        with pytest.raises(ValueError, match="workers"):
            AuditSpec(regions=RegionSpec.grid(5, 5), workers=0)

    def test_regions_required_and_typed(self):
        with pytest.raises(ValueError, match="regions"):
            AuditSpec(regions="a 5x5 grid")
        with pytest.raises(ValueError, match="regions"):
            AuditSpec.from_dict({"family": "bernoulli"})

    def test_regions_dict_is_coerced(self):
        spec = AuditSpec(regions={"kind": "grid", "nx": 3, "ny": 2})
        assert spec.regions == RegionSpec.grid(3, 2)


#: Values an integer field must refuse instead of truncating or
#: parsing them.
NOT_INTEGERS = [2.7, 2.5, 3.9, True, False, "7", float("nan")]
GRID = {"kind": "grid", "nx": 3, "ny": 3}


class TestIntegerFields:
    """Integer fields take integers (or integral floats) only."""

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("field", ["n_worlds", "seed", "workers"])
    def test_audit_spec_refuses(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: "):
            AuditSpec(regions=RegionSpec.grid(5, 5), **{field: value})
        with pytest.raises(ValueError, match=f"^{field}: "):
            AuditSpec.from_dict({"regions": GRID, field: value})

    @pytest.mark.parametrize("value", [*NOT_INTEGERS, None])
    @pytest.mark.parametrize("field", ["nx", "ny"])
    def test_grid_refuses(self, field, value):
        with pytest.raises(ValueError, match=f"^regions.{field}: "):
            RegionSpec.from_dict({**GRID, field: value})
        with pytest.raises(ValueError, match=f"^regions.{field}: "):
            AuditSpec.from_dict({"regions": {**GRID, field: value}})

    @pytest.mark.parametrize("value", [*NOT_INTEGERS, -1])
    def test_scan_fields_refuse(self, value):
        with pytest.raises(ValueError, match="^regions.n_centers: "):
            RegionSpec(kind="squares", n_centers=value)
        with pytest.raises(ValueError, match="^regions.centers_seed: "):
            RegionSpec(kind="squares", n_centers=4, centers_seed=value)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("field", ["initial", "min_exceedances"])
    def test_budget_refuses(self, field, value):
        with pytest.raises(ValueError, match=f"^budget.{field}: "):
            BudgetPolicy.parse({"kind": "adaptive", field: value})

    @pytest.mark.parametrize(
        "value", [7, np.int64(7), np.int32(7), 7.0, np.float64(7.0)]
    )
    def test_integers_and_integral_floats_pass(self, value):
        spec = AuditSpec(
            regions=RegionSpec.grid(value, value), n_worlds=value,
            seed=value, workers=value,
        )
        assert spec == AuditSpec(
            regions=RegionSpec.grid(7, 7), n_worlds=7, seed=7, workers=7
        )
        assert all(
            type(v) is int
            for v in (spec.n_worlds, spec.seed, spec.workers,
                      spec.regions.nx, spec.regions.ny)
        )
        assert spec.spec_hash() == AuditSpec(
            regions=RegionSpec.grid(7, 7), n_worlds=7, seed=7, workers=7
        ).spec_hash()


SQUARES = {"kind": "squares", "n_centers": 4}


class TestMalformedFields:
    """Real-number and name fields refuse values of the wrong type
    with a ValueError naming the field, never a TypeError."""

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("alpha", {"alpha": None}),
            ("alpha", {"alpha": True}),
            ("alpha", {"alpha": "0.1"}),
            ("family", {"family": ["x"]}),
            ("measure", {"measure": {}}),
            ("regions.sides", {"regions": {**GRID, "sides": 5}}),
            ("regions.sides", {"regions": {**SQUARES, "sides": [0.1, None]}}),
            ("regions.radii", {"regions": {**SQUARES, "radii": "0.1"}}),
            ("regions.bounds", {"regions": {**GRID, "bounds": 7}}),
            ("regions.bounds", {"regions": {**GRID, "bounds": [0, 0, 1, None]}}),
            ("budget.growth", {"budget": {"kind": "adaptive", "growth": "2"}}),
            (
                "budget.confidence",
                {"budget": {"kind": "adaptive", "confidence": None}},
            ),
        ],
    )
    def test_from_dict_refuses(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field}: "):
            AuditSpec.from_dict({"regions": GRID, **overrides})

    def test_numpy_reals_pass(self):
        spec = AuditSpec(
            regions=RegionSpec.squares(4, sides=np.array([0.1, 0.2])),
            alpha=np.float32(0.25),
        )
        assert spec.regions.sides == (0.1, 0.2)
        assert type(spec.alpha) is float


class TestAuditSpecBudget:
    def test_default_is_fixed(self):
        spec = AuditSpec(regions=RegionSpec.grid(5, 5))
        assert spec.budget == BudgetPolicy()
        assert not spec.budget.is_adaptive
        assert spec.to_dict()["budget"] == "fixed"

    def test_string_and_dict_coerced_to_policy(self):
        spec = AuditSpec(regions=RegionSpec.grid(5, 5),
                         budget="adaptive")
        assert isinstance(spec.budget, BudgetPolicy)
        assert spec.budget.is_adaptive
        spec = AuditSpec(
            regions=RegionSpec.grid(5, 5),
            budget={"kind": "adaptive", "initial": 64,
                    "min_exceedances": 3},
        )
        assert spec.budget.initial == 64
        assert spec.budget.min_exceedances == 3

    def test_unknown_policy_names_field_and_lists_valid(self):
        with pytest.raises(ValueError,
                           match="budget: unknown budget policy"):
            AuditSpec(regions=RegionSpec.grid(5, 5), budget="turbo")
        try:
            AuditSpec(regions=RegionSpec.grid(5, 5), budget="turbo")
        except ValueError as exc:
            assert "fixed" in str(exc) and "adaptive" in str(exc)

    def test_bad_parameters_name_their_field(self):
        with pytest.raises(ValueError, match="budget.growth"):
            AuditSpec(regions=RegionSpec.grid(5, 5),
                      budget={"kind": "adaptive", "growth": 0.9})
        with pytest.raises(ValueError, match="budget"):
            AuditSpec(regions=RegionSpec.grid(5, 5),
                      budget={"kind": "adaptive", "rounds": 4})

    def test_budget_changes_spec_hash(self):
        fixed = AuditSpec(regions=RegionSpec.grid(5, 5), seed=1)
        adaptive = AuditSpec(regions=RegionSpec.grid(5, 5), seed=1,
                             budget="adaptive")
        assert fixed.spec_hash() != adaptive.spec_hash()

    def test_adaptive_round_trip_is_lossless(self):
        spec = AuditSpec(
            regions=RegionSpec.grid(5, 5), seed=1,
            budget={"kind": "adaptive", "initial": 32, "growth": 3.0,
                    "min_exceedances": 7, "confidence": 0.95},
        )
        assert AuditSpec.from_dict(spec.to_dict()) == spec
        assert AuditSpec.from_json(spec.to_json()) == spec

    def test_legacy_payload_without_budget_still_parses(self):
        data = AuditSpec(regions=RegionSpec.grid(5, 5)).to_dict()
        del data["budget"]
        assert AuditSpec.from_dict(data).budget == BudgetPolicy()

    def test_describe_mentions_adaptive(self):
        spec = AuditSpec(regions=RegionSpec.grid(5, 5),
                         budget="adaptive")
        assert "adaptive" in spec.describe()


ALL_FAMILY_SPECS = [
    AuditSpec(regions=RegionSpec.grid(50, 25,
                                      bounds=(-125.0, 24.0, -66.0, 49.0)),
              family="bernoulli", n_worlds=199, alpha=0.005,
              direction="green", seed=11, workers=2),
    AuditSpec(regions=RegionSpec.squares(100, centers_seed=4),
              family="poisson", measure="statistical_parity",
              n_worlds=999, correction="fdr-bh", seed=0,
              budget="adaptive"),
    AuditSpec(regions=RegionSpec.circles(10, radii=(0.1, 0.2, 0.4)),
              family="multinomial", n_worlds=49),
    AuditSpec(regions=RegionSpec.grid(10, 10), family="bernoulli",
              measure="equal_opportunity", seed=7),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS,
                             ids=lambda s: s.family + "/" + s.regions.kind)
    def test_dict_round_trip(self, spec):
        assert AuditSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS,
                             ids=lambda s: s.family + "/" + s.regions.kind)
    def test_json_round_trip(self, spec):
        assert AuditSpec.from_json(spec.to_json()) == spec
        assert AuditSpec.from_json(spec.to_json(indent=2)) == spec

    def test_dict_is_plain_json_types(self):
        import json

        for spec in ALL_FAMILY_SPECS:
            json.dumps(spec.to_dict())  # must not raise

    def test_version_is_stamped_and_checked(self):
        data = ALL_FAMILY_SPECS[0].to_dict()
        assert data["version"] == SPEC_VERSION
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            AuditSpec.from_dict(data)

    def test_unknown_spec_keys_rejected(self):
        data = ALL_FAMILY_SPECS[0].to_dict()
        data["n_wrlds"] = 99
        with pytest.raises(ValueError, match="n_wrlds"):
            AuditSpec.from_dict(data)

    def test_describe_mentions_the_design(self):
        text = ALL_FAMILY_SPECS[1].describe()
        assert "poisson" in text and "squares" in text and "999" in text
