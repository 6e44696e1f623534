"""Declarative, serializable audit requests.

An :class:`AuditSpec` is the complete description of one audit — the
outcome family, the fairness measure, the candidate-region design
(:class:`RegionSpec`) and the Monte Carlo parameters — as one frozen,
hashable, strictly validated value object with lossless
``to_dict``/``from_dict``/``to_json``/``from_json``.  Specs carry no
data and do no compute: they can be validated up front, deduplicated,
cached under, stored, and shipped over the wire, then handed to a
:class:`repro.api.AuditSession` (which binds the dataset) to run.

Every field is checked at construction time, so an invalid request
fails where it is built — not deep inside the engine::

    >>> from repro.spec import AuditSpec, RegionSpec
    >>> spec = AuditSpec(regions=RegionSpec.grid(10, 10), seed=1)
    >>> AuditSpec.from_json(spec.to_json()) == spec
    True
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .budget import BudgetPolicy, _err, _int, _real
from .core import MEASURES, _run_fields
from .geometry import (
    GridPartitioning,
    Rect,
    RegionSet,
    circle_region_set,
    paper_side_lengths,
    partition_region_set,
    scan_centers,
    square_region_set,
)

__all__ = ["RegionSpec", "AuditSpec", "SPEC_VERSION", "REGION_KINDS"]

#: Serialization schema version written by ``AuditSpec.to_dict``.
SPEC_VERSION = 1

#: Region designs a :class:`RegionSpec` can describe.
REGION_KINDS = ("grid", "squares", "circles")

def _reals(field_name: str, values) -> tuple:
    """``values`` as a tuple of floats (:func:`repro.budget._real`
    each), or a ValueError naming ``field_name``."""
    if not isinstance(values, (str, bytes, dict)):
        try:
            return tuple(_real(field_name, v) for v in values)
        except TypeError:  # not iterable
            pass
    raise _err(field_name, f"expected a list of numbers, got {values!r}")


def _name(field_name: str, value) -> str:
    """``value`` if it is a string, else a ValueError naming
    ``field_name``."""
    if not isinstance(value, str):
        raise _err(field_name, f"expected a string, got {value!r}")
    return value


@dataclass(frozen=True)
class RegionSpec:
    """The candidate-region design of an audit, as pure parameters.

    Three kinds cover the paper's geometries:

    * ``'grid'`` — a regular ``nx x ny`` grid partitioning
      (:func:`repro.geometry.partition_region_set`); ``bounds`` fixes
      the partitioned rectangle, else the data's bounding box is used;
    * ``'squares'`` — the square scan: every k-means centre
      (``n_centers``, seeded by ``centers_seed``) crossed with every
      side length in ``sides`` (empty means the paper's 20 defaults);
    * ``'circles'`` — Kulldorff's circular scan: every centre crossed
      with every radius in ``radii``.

    Instances are frozen and hashable, so sessions key their region
    and membership caches on them directly.

    Examples
    --------
    >>> RegionSpec.grid(50, 25).n_regions_hint
    1250
    >>> RegionSpec.squares(100).kind
    'squares'
    """

    kind: str
    nx: int | None = None
    ny: int | None = None
    n_centers: int | None = None
    sides: tuple = ()
    radii: tuple = ()
    centers_seed: int = 0
    bounds: tuple | None = None

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise _err(
                "regions.kind",
                f"unknown kind {self.kind!r}; expected one of "
                f"{REGION_KINDS}",
            )
        object.__setattr__(
            self, "sides", _reals("regions.sides", self.sides)
        )
        object.__setattr__(
            self, "radii", _reals("regions.radii", self.radii)
        )
        object.__setattr__(
            self,
            "centers_seed",
            _int("regions.centers_seed", self.centers_seed),
        )
        if self.centers_seed < 0:
            raise _err(
                "regions.centers_seed",
                f"must be >= 0, got {self.centers_seed}",
            )
        if self.bounds is not None:
            bounds = _reals("regions.bounds", self.bounds)
            if len(bounds) != 4:
                raise _err(
                    "regions.bounds",
                    "expected (min_x, min_y, max_x, max_y)",
                )
            if not all(map(math.isfinite, bounds)):
                raise _err(
                    "regions.bounds", f"values must be finite, got {bounds}"
                )
            if bounds[0] > bounds[2] or bounds[1] > bounds[3]:
                raise _err(
                    "regions.bounds",
                    f"min exceeds max in {bounds}",
                )
            object.__setattr__(self, "bounds", bounds)
        if self.kind == "grid":
            for name in ("nx", "ny"):
                value = getattr(self, name)
                if value is not None:
                    value = _int(f"regions.{name}", value)
                if value is None or value < 1:
                    raise _err(
                        f"regions.{name}",
                        f"a grid design needs {name} >= 1, got {value!r}",
                    )
                object.__setattr__(self, name, value)
            if self.n_centers is not None or self.sides or self.radii:
                raise _err(
                    "regions",
                    "a grid design takes no n_centers/sides/radii",
                )
            if self.centers_seed != 0:
                raise _err(
                    "regions.centers_seed",
                    "a grid design takes no centers_seed",
                )
        else:
            if self.nx is not None or self.ny is not None:
                raise _err(
                    "regions",
                    f"a {self.kind!r} design takes no nx/ny",
                )
            if self.bounds is not None:
                raise _err(
                    "regions.bounds",
                    f"a {self.kind!r} design takes no bounds — its "
                    "centres come from the data",
                )
            n_centers = self.n_centers
            if n_centers is not None:
                n_centers = _int("regions.n_centers", n_centers)
            if n_centers is None or n_centers < 1:
                raise _err(
                    "regions.n_centers",
                    f"a {self.kind!r} design needs n_centers >= 1, "
                    f"got {self.n_centers!r}",
                )
            object.__setattr__(self, "n_centers", n_centers)
            # The chained test is False for NaN and for inf.
            if any(not (0 < s < math.inf) for s in self.sides):
                raise _err(
                    "regions.sides",
                    f"side lengths must be finite and positive, got "
                    f"{self.sides}",
                )
            # Circle membership compares d**2 with radius**2, so the
            # square must be finite too (False for NaN, inf, > ~1e154).
            if any(not (0 < r and r * r < math.inf) for r in self.radii):
                raise _err(
                    "regions.radii",
                    f"radii must be positive with a finite square, got "
                    f"{self.radii}",
                )
            if self.kind == "squares" and self.radii:
                raise _err(
                    "regions.radii", "a 'squares' design takes no radii"
                )
            if self.kind == "circles":
                if self.sides:
                    raise _err(
                        "regions.sides",
                        "a 'circles' design takes no sides",
                    )
                if not self.radii:
                    raise _err(
                        "regions.radii",
                        "a 'circles' design needs at least one radius",
                    )

    @classmethod
    def grid(
        cls, nx: int, ny: int | None = None, bounds: tuple | None = None
    ) -> "RegionSpec":
        """A regular grid partitioning design.

        Parameters
        ----------
        nx, ny : int
            Cells per axis; ``ny`` defaults to ``nx``.
        bounds : tuple, optional
            ``(min_x, min_y, max_x, max_y)`` to partition; the data's
            bounding box when omitted.

        Returns
        -------
        RegionSpec
        """
        return cls(
            kind="grid", nx=nx, ny=nx if ny is None else ny, bounds=bounds
        )

    @classmethod
    def squares(
        cls,
        n_centers: int,
        sides: tuple = (),
        centers_seed: int = 0,
    ) -> "RegionSpec":
        """A square-scan design around k-means centres.

        Parameters
        ----------
        n_centers : int
            K-means scan centres.
        sides : tuple of float, optional
            Square side lengths; empty means the paper's 20 defaults
            (:func:`repro.geometry.paper_side_lengths`).
        centers_seed : int, default 0
            Seed of the k-means initialisation.

        Returns
        -------
        RegionSpec
        """
        return cls(
            kind="squares",
            n_centers=n_centers,
            sides=tuple(sides),
            centers_seed=centers_seed,
        )

    @classmethod
    def circles(
        cls,
        n_centers: int,
        radii: tuple,
        centers_seed: int = 0,
    ) -> "RegionSpec":
        """A circular-scan (Kulldorff) design around k-means centres.

        Parameters
        ----------
        n_centers : int
        radii : tuple of float
        centers_seed : int, default 0

        Returns
        -------
        RegionSpec
        """
        return cls(
            kind="circles",
            n_centers=n_centers,
            radii=tuple(radii),
            centers_seed=centers_seed,
        )

    @property
    def n_regions_hint(self) -> int:
        """The number of candidate regions the design will produce
        (for squares with default sides, the paper's 20 per centre)."""
        if self.kind == "grid":
            return self.nx * self.ny
        per_center = (
            len(self.radii)
            if self.kind == "circles"
            else (len(self.sides) or len(paper_side_lengths()))
        )
        return self.n_centers * per_center

    def build(self, coords: np.ndarray) -> RegionSet:
        """Materialise the design over concrete observation locations.

        Parameters
        ----------
        coords : ndarray of shape (n, 2)

        Returns
        -------
        RegionSet

        Raises
        ------
        ValueError
            Naming ``regions.n_centers`` when a scan design asks for
            more centres than ``coords`` has points.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if self.kind == "grid":
            rect = (
                Rect(*self.bounds)
                if self.bounds is not None
                else Rect.bounding(coords)
            )
            return partition_region_set(
                GridPartitioning.regular(rect, self.nx, self.ny)
            )
        if self.n_centers > len(coords):
            raise _err(
                "regions.n_centers",
                f"{self.n_centers} centres need at least as many points, "
                f"but the slice has {len(coords)}",
            )
        centers = scan_centers(
            coords, self.n_centers, seed=self.centers_seed
        )
        if self.kind == "squares":
            sides = self.sides or tuple(paper_side_lengths())
            return square_region_set(centers, sides)
        return circle_region_set(centers, self.radii)

    def to_dict(self) -> dict:
        """Plain-JSON-types dict; drops fields the kind does not use.

        Returns
        -------
        dict
        """
        out: dict = {"kind": self.kind}
        if self.kind == "grid":
            out["nx"] = self.nx
            out["ny"] = self.ny
        else:
            out["n_centers"] = self.n_centers
            out["centers_seed"] = self.centers_seed
            if self.kind == "squares":
                out["sides"] = list(self.sides)
            else:
                out["radii"] = list(self.radii)
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RegionSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Parameters
        ----------
        data : dict

        Returns
        -------
        RegionSpec
        """
        if not isinstance(data, dict):
            raise _err(
                "regions", f"expected a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise _err(
                "regions",
                f"unknown field(s) {sorted(unknown)}; known: "
                f"{sorted(known)}",
            )
        if "kind" not in data:
            raise _err(
                "regions.kind",
                f"missing — expected one of {REGION_KINDS}",
            )
        return cls(**data)


@dataclass(frozen=True)
class AuditSpec:
    """One audit request, fully described and ready to serialize.

    Attributes
    ----------
    regions : RegionSpec
        The candidate-region design (a dict is accepted and coerced).
    family : str, default 'bernoulli'
        Outcome family; any :data:`repro.core.FAMILIES` key.
    measure : str, default 'statistical_parity'
        Fairness measure; any :data:`repro.core.MEASURES` key valid
        for the family.
    n_worlds : int, default 99
        Simulated null worlds.
    alpha : float, default 0.05
        Significance level, in (0, 1).
    direction : str, default 'two-sided'
        ``'two-sided'``, ``'lower'`` or ``'higher'`` (aliases
        ``'red'``/``'green'``/``'both'``/``None`` are canonicalised).
    correction : str, default 'max-stat'
        Per-region correction; any :data:`repro.core.CORRECTIONS`
        entry.
    budget : BudgetPolicy, str or dict, default 'fixed'
        The Monte Carlo world-budget policy
        (:class:`repro.budget.BudgetPolicy`).  ``'fixed'`` simulates
        exactly ``n_worlds`` worlds (bit-identical to earlier
        releases); ``'adaptive'`` runs progressive rounds and stops
        early once the sequential rule settles the verdict.  A dict
        form tunes the adaptive parameters.
    seed : int, optional
        Monte Carlo master seed, ``>= 0``; ``None`` runs unseeded
        (and uncached).
    workers : int, optional
        Worker threads; ``None`` defers to the session default.

    Examples
    --------
    >>> spec = AuditSpec(regions=RegionSpec.grid(5, 5), n_worlds=49,
    ...                  direction="red", budget="adaptive", seed=7)
    >>> spec.direction
    'lower'
    >>> spec.budget.kind
    'adaptive'
    >>> AuditSpec.from_dict(spec.to_dict()) == spec
    True
    """

    regions: RegionSpec
    family: str = "bernoulli"
    measure: str = "statistical_parity"
    n_worlds: int = 99
    alpha: float = 0.05
    direction: str = "two-sided"
    correction: str = "max-stat"
    budget: BudgetPolicy = BudgetPolicy()
    seed: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if isinstance(self.regions, dict):
            object.__setattr__(
                self, "regions", RegionSpec.from_dict(self.regions)
            )
        if not isinstance(self.regions, RegionSpec):
            raise _err(
                "regions",
                "expected a RegionSpec (or its dict form), got "
                f"{type(self.regions).__name__}",
            )
        # The Monte Carlo fields are checked as the legacy auditors'
        # audit() checks them.
        names = (
            "n_worlds", "alpha", "direction", "correction", "seed",
            "workers",
        )
        checked = _run_fields(
            self.family, *(getattr(self, name) for name in names)
        )
        for name, value in zip(names, checked):
            object.__setattr__(self, name, value)
        measure = MEASURES.get(_name("measure", self.measure))
        if measure is None:
            raise _err(
                "measure",
                f"unknown measure {self.measure!r}; registered: "
                f"{sorted(MEASURES)}",
            )
        if (
            measure.families is not None
            and self.family not in measure.families
        ):
            raise _err(
                "measure",
                f"measure {self.measure!r} applies to families "
                f"{measure.families}, not {self.family!r}",
            )
        # BudgetPolicy.parse raises ValueErrors that name the
        # ``budget`` field, matching the _err convention here.
        object.__setattr__(
            self, "budget", BudgetPolicy.parse(self.budget)
        )

    def to_dict(self) -> dict:
        """The spec as plain JSON types, stamped with
        :data:`SPEC_VERSION`.

        Returns
        -------
        dict
        """
        return {
            "version": SPEC_VERSION,
            "family": self.family,
            "measure": self.measure,
            "regions": self.regions.to_dict(),
            "n_worlds": self.n_worlds,
            "alpha": self.alpha,
            "direction": self.direction,
            "correction": self.correction,
            "budget": self.budget.to_dict(),
            "seed": self.seed,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditSpec":
        """Inverse of :meth:`to_dict`; strict about keys and version.

        Parameters
        ----------
        data : dict

        Returns
        -------
        AuditSpec
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"spec: expected a dict, got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"spec: unsupported version {version!r} (this build "
                f"reads version {SPEC_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"spec: unknown field(s) {sorted(unknown)}; known: "
                f"{sorted(known)}"
            )
        if "regions" not in data:
            raise _err("regions", "missing — every spec needs a design")
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`.

        Parameters
        ----------
        indent : int, optional

        Returns
        -------
        str
        """
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AuditSpec":
        """Parse a spec from its JSON form (inverse of
        :meth:`to_json`).

        Parameters
        ----------
        text : str

        Returns
        -------
        AuditSpec
        """
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable content hash of the request (hex SHA-1).

        Hashes the canonical serialized form **minus** ``workers``:
        the worker count is an execution hint with bit-identical
        results at any value, so two requests differing only in it are
        the same audit.  Result caches
        (:class:`repro.serve.AuditService`) key on this hash.

        Returns
        -------
        str
        """
        payload = self.to_dict()
        payload.pop("workers")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human summary of the request."""
        worlds = f"{self.n_worlds} worlds"
        if self.budget.is_adaptive:
            worlds = f"<= {self.n_worlds} worlds (adaptive)"
        return (
            f"{self.family}/{self.measure} over {self.regions.kind} "
            f"({self.regions.n_regions_hint} regions), "
            f"{worlds}, alpha={self.alpha:g}, "
            f"{self.direction}, {self.correction}"
        )
