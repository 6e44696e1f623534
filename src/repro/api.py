"""The package's front door: sessions, reports and the fluent builder.

One declarative entry point serves every audit family.  An
:class:`AuditSession` binds a dataset once (coordinates, outcomes and
whatever auxiliaries the families need) and then runs any number of
:class:`repro.spec.AuditSpec` requests against it, reusing the
expensive intermediates across calls: each region set is cached with
its membership matrix per design and measure, and stream events
update the matrices in place.  Results come back as
:class:`AuditReport` objects with a stable, versioned ``to_dict()``
ready for serving.

Three equivalent ways to drive it::

    import repro

    # 1. the fluent builder
    report = (repro.audit(coords, y_pred)
              .partition(50, 25).worlds(999).workers(4).run())

    # 2. an explicit spec against a session
    session = repro.AuditSession(coords, y_pred)
    spec = repro.AuditSpec(regions=repro.RegionSpec.grid(50, 25),
                           n_worlds=999, workers=4)
    report = session.run(spec)

    # 3. a serialized spec, e.g. received over the wire
    report = session.run(repro.AuditSpec.from_json(payload))

All three produce bit-identical findings for the same spec and seed.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    FAMILIES,
    MEASURES,
    AuditResult,
    ObservedScan,
    _check_member,
    _parse_direction,
    _scan_group,
)
from .budget import _int, _workers
from .engine import LLRKernel, MonteCarloEngine
from .fingerprint import array_fingerprint as _array_fingerprint
from .fingerprint import dataset_fingerprint as _dataset_fingerprint
from .geometry import Rect, RegionSet, check_coords
from .index import RegionMembership, dropped_prefix
from .spec import AuditSpec, RegionSpec

__all__ = [
    "AuditSession",
    "AuditReport",
    "AuditBuilder",
    "ResolvedSpec",
    "audit",
]

#: Version stamp of ``AuditReport.to_dict`` payloads.  Version 2
#: dropped the ``worlds_simulated`` key (``n_worlds`` carries it) and
#: marks the region-level world stream of disjoint designs.
REPORT_VERSION = 2


@dataclass
class AuditReport:
    """The outcome of one spec-driven audit, ready for serving.

    Wraps the :class:`repro.core.AuditResult` together with the
    :class:`repro.spec.AuditSpec` that produced it, and renders both
    into a stable, versioned dict (:meth:`to_dict`) whose schema is
    :data:`REPORT_VERSION`.

    Attributes
    ----------
    spec : AuditSpec
        The request this report answers.
    result : AuditResult
        The full in-memory result (findings, null quantiles, ...).
    """

    spec: AuditSpec
    result: AuditResult

    @property
    def is_fair(self) -> bool:
        """Verdict: ``True`` when fairness cannot be rejected."""
        return self.result.is_fair

    @property
    def p_value(self) -> float:
        """Monte Carlo p-value of the scan maximum."""
        return self.result.p_value

    @property
    def findings(self) -> list:
        """All per-region findings, in region order."""
        return self.result.findings

    @property
    def significant_findings(self) -> list:
        """Significant findings, strongest first."""
        return self.result.significant_findings

    def summary(self) -> str:
        """Human-readable report: the request line plus the result's
        multi-line summary."""
        return f"{self.spec.describe()}\n{self.result.summary()}"

    @staticmethod
    def _finding_dict(finding) -> dict:
        rect = finding.rect
        return {
            "index": finding.index,
            "center_id": finding.center_id,
            "rect": [rect.min_x, rect.min_y, rect.max_x, rect.max_y],
            "n": finding.n,
            "p": finding.p,
            "rho_in": finding.rho_in,
            "llr": finding.llr,
            "p_value": finding.p_value,
            "significant": finding.significant,
            "direction": finding.direction,
            "class_rates": list(finding.class_rates),
        }

    @staticmethod
    def _region_dicts(columns, idx: list | None) -> list:
        """:meth:`_finding_dict` of each region index in ``idx`` (every
        region when ``None``), built straight from the result's
        :class:`repro.core.RegionColumns` without
        :class:`repro.core.Finding` objects."""
        centers = columns.regions.center_ids
        corners = columns.regions.corners
        rates = columns.class_rates
        return [
            {
                "index": i,
                "center_id": centers[i],
                "rect": list(corners[i]),
                "n": n,
                "p": p,
                "rho_in": rho_in,
                "llr": stat,
                "p_value": p_value,
                "significant": sig,
                "direction": sign,
                "class_rates": [] if rates is None else rates[i].tolist(),
            }
            for i, n, p, rho_in, stat, p_value, sig, sign in (
                columns.rows(idx)
            )
        ]

    def to_dict(self, full: bool = False) -> dict:
        """The report as plain JSON types with a stable schema.

        Every per-region dict (``"significant"``, ``"best"`` and, with
        ``full``, ``"findings"``) is built straight from the result's
        columns (:attr:`repro.core.AuditResult.columns`); no
        :class:`repro.core.Finding` object is made.  Each equals
        :meth:`_finding_dict` of the matching finding.

        Parameters
        ----------
        full : bool, default False
            Include every scanned region under ``"findings"``; the
            default ships only the significant ones (strongest first)
            plus the single best finding.

        Returns
        -------
        dict
        """
        result = self.result
        columns = result.columns
        significant = columns.significant_order()
        best = columns.best_index()
        out = {
            "version": REPORT_VERSION,
            "spec": self.spec.to_dict(),
            "verdict": "fair" if result.is_fair else "unfair",
            "p_value": result.p_value,
            "p_value_ci": list(result.p_value_ci),
            "alpha": result.alpha,
            "critical_value": result.critical_value,
            "n_regions": result.n_regions,
            "n_worlds": result.n_worlds,
            "n_worlds_requested": (
                result.n_worlds_requested or result.n_worlds
            ),
            "stopped_early": result.stopped_early,
            "total_n": result.total_n,
            "total_p": result.total_p,
            "direction": result.direction,
            "correction": result.correction,
            "n_significant": len(significant),
            "significant": self._region_dicts(
                columns, significant.tolist()
            ),
            "best": (
                None
                if best is None
                else self._region_dicts(columns, [best])[0]
            ),
        }
        if full:
            out["findings"] = self._region_dicts(columns, None)
        return out

    def to_json(self) -> str:
        """The report's canonical text: :meth:`to_dict` with ``full``
        as sorted-key JSON.  The gateway serialises each report once,
        through this, and journals and serves these exact bytes."""
        return json.dumps(self.to_dict(full=True), sort_keys=True)


@dataclass(frozen=True)
class ResolvedSpec:
    """One spec materialised against a session, ready to execute.

    The bundle of cached intermediates a spec needs to run: the
    session's engine, the family's bound data, the materialised region
    set with its membership index, and the spec's Monte Carlo kernel.
    :meth:`AuditSession.resolve` produces it;
    :class:`repro.serve.AuditService` groups resolved specs whose
    kernels agree into one fused simulation pass.

    Attributes
    ----------
    spec : AuditSpec
        The request this resolution answers.
    engine : MonteCarloEngine
        The session's engine, which runs every null pass.
    bound : dict
        The family's validated bound state.
    regions : RegionSet
        The materialised candidate regions.
    member : RegionMembership
        The regions' (cached) membership index over the spec's
        measured coordinate subset.
    kernel : LLRKernel
        The spec's null-model kernel; ``kernel.cache_key()`` is the
        fusion key — equal keys mean shareable simulated worlds.
    """

    spec: AuditSpec
    engine: MonteCarloEngine
    bound: dict
    regions: RegionSet
    member: RegionMembership
    kernel: LLRKernel


class _Snapshot:
    """One immutable dataset state of an :class:`AuditSession`.

    Holds the state's read-only arrays together with everything
    derived from them alone — measured slices, family bound state,
    observed scans, content digests and the bounding box — each
    computed at most once, on first use.  A stream event builds a new
    snapshot and the session swaps it in whole, so a reader never
    pairs one state's arrays with another state's fingerprint.

    ``in_order`` records whether the timestamps are non-decreasing with
    no NaN, so a time selector drops a prefix found by one binary
    search.  A stream event carries it over in O(delta); left as None,
    it is computed here, once.
    """

    def __init__(
        self, coords, outcomes, y_true, forecast, timestamps, n_classes,
        in_order=None,
    ):
        self.coords = coords
        self.outcomes = outcomes
        self.y_true = y_true
        self.forecast = forecast
        self.timestamps = timestamps
        self.n_classes = n_classes
        if in_order is None:
            in_order = timestamps is not None and _in_order(timestamps)
        self.in_order = in_order
        for name in _SNAPSHOT_ARRAYS:
            arr = getattr(self, name)
            if arr is not None:
                arr.flags.writeable = False
        self._fingerprint: str | None = None
        self._digests: dict = {}
        self._measured: dict = {}
        self._slice_digests: dict = {}
        self._bound: dict = {}
        self._observed: dict = {}

    def derive(self, change, in_order=None) -> "_Snapshot":
        """The next state: ``change(name, arr)`` of every present
        array (``None`` arrays stay ``None``), whose timestamps are
        ``in_order`` (None: check them)."""
        arrays = [
            None if getattr(self, name) is None
            else change(name, getattr(self, name))
            for name in _SNAPSHOT_ARRAYS
        ]
        return _Snapshot(*arrays, self.n_classes, in_order)

    def fingerprint(self) -> str:
        """:func:`repro.fingerprint.dataset_fingerprint` of the state,
        hashed on first call only."""
        if self._fingerprint is None:
            self._fingerprint = _dataset_fingerprint(
                self.coords,
                self.outcomes,
                y_true=self.y_true,
                forecast=self.forecast,
                n_classes=self.n_classes,
                digests=self._digests,
            )
        return self._fingerprint

    def digest(self, name: str) -> str:
        """:func:`repro.fingerprint.array_fingerprint` of one of the
        hashed arrays (``coords``/``outcomes``/``y_true``/
        ``forecast``), taken from :meth:`fingerprint`."""
        self.fingerprint()
        return self._digests[name]

    @cached_property
    def bounding_box(self) -> Rect | None:
        """:meth:`repro.geometry.Rect.bounding` of the full dataset's
        coordinates, or None when it holds no points; computed on first
        read only."""
        return Rect.bounding(self.coords) if len(self.coords) else None

    def measured(self, measure: str):
        """(coords, outcomes) after applying a measure, cached."""
        cached = self._measured.get(measure)
        if cached is None:
            mdef = MEASURES[measure]
            if mdef.needs_y_true and self.y_true is None:
                raise ValueError(
                    f"measure: {measure!r} needs ground-truth labels — "
                    "construct the session with y_true="
                )
            cached = mdef.extract(self.coords, self.outcomes, self.y_true)
            if len(cached[0]) == 0:
                raise ValueError(
                    f"measure: {measure!r} leaves no observations to "
                    "audit on this dataset"
                )
            self._measured[measure] = cached
        return cached

    def slice_digests(self, measure: str) -> tuple:
        """Digests of a measure's (coords, outcomes) slice, cached.  A
        slice array that is one of the state's own reuses
        :meth:`digest`."""
        digests = self._slice_digests.get(measure)
        if digests is None:
            digests = tuple(
                self.digest(name)
                if arr is getattr(self, name)
                else _array_fingerprint(arr)
                for name, arr in zip(
                    ("coords", "outcomes"), self.measured(measure)
                )
            )
            self._slice_digests[measure] = digests
        return digests

    def bound(self, family: str, measure: str) -> dict:
        """The family's validated bound state for a measure, cached."""
        key = (family, measure)
        bound = self._bound.get(key)
        if bound is None:
            coords, outcomes = self.measured(measure)
            bound = FAMILIES[family].bind(
                coords,
                outcomes,
                forecast=self.forecast,
                n_classes=self.n_classes,
            )
            self._bound[key] = bound
        return bound

    def observed(self, resolved: "ResolvedSpec") -> ObservedScan:
        """The observed scan of a spec resolved on this state, cached
        per family, measure and direction, and per region set (held
        weakly, so a region set the session drops takes its scan
        along)."""
        spec = resolved.spec
        direction = _parse_direction(spec.direction)
        key = (spec.family, spec.measure, direction)
        scans = self._observed.setdefault(key, weakref.WeakKeyDictionary())
        obs = scans.get(resolved.regions)
        if obs is None:
            obs = FAMILIES[spec.family].observed(
                resolved.bound, resolved.member, direction
            )
            scans[resolved.regions] = obs
        return obs


#: The per-point arrays of a :class:`_Snapshot`, in constructor order.
_SNAPSHOT_ARRAYS = ("coords", "outcomes", "y_true", "forecast", "timestamps")


def _numbers(name: str, arr, dtype=None) -> np.ndarray | None:
    """A flat copy of one per-point input array (None stays None), or a
    ValueError naming ``name`` when numpy can hold it only as objects
    (a ``None`` entry, an integer past uint64, a dict)."""
    if arr is None:
        return None
    try:
        out = np.array(arr, dtype=dtype).ravel()
    except (TypeError, ValueError):
        out = None
    if out is None or out.dtype == object:
        raise ValueError(f"{name}: expected an array of numbers")
    return out


def _in_order(ts: np.ndarray) -> bool:
    """Whether timestamps are non-decreasing with no NaN.  A NaN fails
    every comparison, so the pairwise test catches it once there are
    two stamps; the first stamp is checked on its own."""
    return bool(np.all(ts[1:] >= ts[:-1])) and not np.isnan(ts[:1]).any()


def _state_field(name: str, doc: str) -> property:
    """A read-only session attribute served from the current state."""
    return property(lambda self: getattr(self._state, name), doc=doc)


class AuditSession:
    """A dataset bound once, ready to answer any number of audit specs.

    The session owns the reusable state the specs share: the measured
    data slices, one :class:`repro.engine.MonteCarloEngine` that runs
    every null pass, and one table holding, per
    :class:`repro.spec.RegionSpec` and measure, the materialised
    :class:`RegionSet` with its membership index over the measure's
    coordinates — so a second ``run()`` over the same geometry
    performs zero membership rebuilds.  Each ``run()``
    simulates its own null worlds; repeated seeded specs are answered
    without simulation by :class:`repro.serve.AuditService`'s report
    cache.

    The dataset is an immutable snapshot: the constructor takes one
    private copy of every array and marks it read-only, so writing
    into ``session.outcomes`` raises :class:`ValueError`, assigning
    ``session.outcomes`` raises :class:`AttributeError`, and changing
    the caller's original arrays afterwards changes no report.  Each
    dataset state is hashed at most once, and only where a content key
    is needed (:meth:`dataset_fingerprint`, the service's report-cache
    keys).

    Sessions also stream: :meth:`append` takes newly arrived points
    and :meth:`evict` expires old ones (by mask, age, or sliding time
    window).  Each event swaps in a new snapshot and maintains the
    cached intermediates *incrementally* — membership matrices gain or
    lose columns in place, and every updated structure is
    **bit-identical** to the one a cold session over the final data
    would build.  A measure whose data slice a stream event did not
    change keeps its indexes untouched, and streamed reports equal
    cold reports bit for bit.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
        Observation locations.
    outcomes : ndarray of shape (n,)
        The audited outcomes: binary labels (``family='bernoulli'``),
        whole observed event counts (``'poisson'``) or integer class
        labels (``'multinomial'``).
    y_true : ndarray of shape (n,), optional
        Ground-truth labels, required by the accuracy measures
        (``'equal_opportunity'``, ``'predictive_equality'``).
    forecast : ndarray of shape (n,), optional
        Expected counts, required by the Poisson family.
    n_classes : int, optional
        Class count (``>= 1``) for the multinomial family (inferred
        from the labels when omitted).  A multinomial audit of a slice
        with fewer points than classes — a window evicted below the
        declared count too — is refused with a ValueError naming
        ``n_classes`` (``outcomes`` when the count was inferred).
    workers : int, optional
        Default Monte Carlo worker count (``>= 1``) for specs that
        leave ``workers`` unset.
    timestamps : ndarray of shape (n,), optional
        Per-point event times (any monotone unit).  Required by the
        time-based :meth:`evict` selectors (``older_than``/
        ``window``); mask-based eviction works without them.

    Attributes
    ----------
    index_builds : int
        Total membership matrices built so far (across measures) —
        the cache-reuse observability counter.
    incremental_builds : int
        Total in-place membership updates applied by :meth:`append` /
        :meth:`evict`, one per live membership index per stream
        event — the streaming counterpart of ``index_builds``.
    """

    coords = _state_field(
        "coords", "Observation locations, ``(n, 2)`` float64, read-only."
    )
    outcomes = _state_field(
        "outcomes", "The audited outcomes, ``(n,)``, read-only."
    )
    y_true = _state_field(
        "y_true", "Ground-truth labels, ``(n,)`` read-only, or None."
    )
    forecast = _state_field(
        "forecast", "Expected counts, ``(n,)`` float64 read-only, or None."
    )
    timestamps = _state_field(
        "timestamps", "Event times, ``(n,)`` float64 read-only, or None."
    )
    n_classes = _state_field(
        "n_classes", "Multinomial class count, or None to infer it."
    )

    def __init__(
        self,
        coords: np.ndarray,
        outcomes: np.ndarray,
        y_true: np.ndarray | None = None,
        forecast: np.ndarray | None = None,
        n_classes: int | None = None,
        workers: int | None = None,
        timestamps: np.ndarray | None = None,
    ):
        if n_classes is not None:
            n_classes = _int("n_classes", n_classes, 1)
        self._state = _Snapshot(
            np.array(check_coords(coords)),
            _numbers("outcomes", outcomes),
            _numbers("y_true", y_true),
            _numbers("forecast", forecast, np.float64),
            _numbers("timestamps", timestamps, np.float64),
            n_classes,
        )
        for field in _SNAPSHOT_ARRAYS[1:]:
            arr = getattr(self, field)
            if arr is not None and len(arr) != len(self.coords):
                raise ValueError(
                    f"{field}: length does not match coords "
                    f"({len(arr)} vs {len(self.coords)})"
                )
        self.workers = _workers(workers)
        self._engine = MonteCarloEngine()
        # (design, measure) -> (RegionSet, RegionMembership): the one
        # cache that outlives a state; stream events migrate it (see
        # ``_migrate``).  Everything else derived from the data lives
        # on the snapshot.
        self._designs: dict = {}
        self.incremental_builds = 0

    # -- cached intermediates -------------------------------------------

    def dataset_fingerprint(self) -> str:
        """Content fingerprint of the session's dataset.

        A BLAKE2b digest over every array that shapes audit results
        (coords, outcomes, y_true, forecast) plus ``n_classes`` — see
        :func:`repro.fingerprint.dataset_fingerprint`.  Computed once
        per dataset state, on first call; :meth:`append` and
        :meth:`evict` start a new state.

        Returns
        -------
        str
        """
        return self._state.fingerprint()

    def region_set(
        self, design: RegionSpec, measure: str = "statistical_parity"
    ) -> RegionSet:
        """The materialised candidate regions of a design, cached per
        ``(design, measure)`` together with their membership index
        over the measure's coordinates.

        Grid designs without explicit ``bounds`` partition the full
        dataset's bounding box regardless of the measure (the region
        family is predetermined, as the paper requires: a grid over
        ``data.bounds()``); square
        and circle scans place their k-means centres on the measure's
        coordinate subset, the points actually audited.

        Parameters
        ----------
        design : RegionSpec
        measure : str, default 'statistical_parity'
            Measures that subset the data (different coordinates) get
            their own materialisation.

        Returns
        -------
        RegionSet
        """
        return self._design(design, measure)[0]

    def _design(self, design: RegionSpec, measure: str) -> tuple:
        """``(regions, member)``: :meth:`region_set` with its
        membership over the measure's coordinates, built on first
        use."""
        key = (design, measure)
        entry = self._designs.get(key)
        if entry is None:
            # Validates the measure first.
            coords, _ = self._state.measured(measure)
            # Grids cover the full dataset's box (see region_set).
            grid = design.kind == "grid"
            regions = design.build(self.coords if grid else coords)
            entry = (regions, self._engine._cold_build(regions, coords))
            self._designs[key] = entry
        return entry

    @property
    def index_builds(self) -> int:
        """Membership matrices built so far, across all measures — the
        counter never goes backwards."""
        return self._engine.index_builds

    @property
    def worlds_simulated(self) -> int:
        """Null worlds actually simulated so far, across all measures
        (cache answers and fused sharing excluded) — the denominator
        of every batching-amortisation claim."""
        return self._engine.worlds_simulated

    # -- streaming ------------------------------------------------------
    #
    # Append/evict build the next snapshot AND migrate the cached
    # designs to it — incrementally where a membership can be updated
    # in place, by retirement where it cannot (a data-driven grid
    # whose bounding box moved, a measure whose slice emptied out).
    # Everything that survives is bit-identical to what a cold session
    # over the final arrays would build, so streamed audits equal cold
    # audits exactly.

    def _check_delta(self, name, existing, delta, k, dtype=None):
        """Validate one optional auxiliary array of an append batch."""
        if existing is None:
            if delta is not None:
                raise ValueError(
                    f"{name}: the session was constructed without "
                    f"{name} — a stream cannot introduce it mid-flight"
                )
            return None
        if delta is None:
            raise ValueError(
                f"{name}: the session carries {name}, so append() "
                "must supply it for the new points"
            )
        arr = _numbers(name, delta, dtype)
        if len(arr) != k:
            raise ValueError(
                f"{name}: length does not match coords "
                f"({len(arr)} vs {k})"
            )
        return arr

    def _migrate(self, state: _Snapshot, slices: dict, update) -> None:
        """Carry the cached designs over to the next state, then swap
        it in.

        A design survives while a cold build over the new data would
        produce the same regions.  Grids with explicit bounds always
        do; grids without bounds depend only on the full dataset's
        bounding box (frozen float equality — a box that moved at all
        retires the grid); k-means designs (squares/circles) depend on
        the measured coordinate subset and survive only when that
        subset did not change.

        Parameters
        ----------
        state : _Snapshot
            The dataset after the event.
        slices : dict of str -> object
            Per measure: the event's change to its measured slice, or
            ``None`` when the slice did not change.  A measure without
            an entry (slice emptied, measure unregistered) retires
            every design of it.
        update : callable
            ``update(member, change)`` applies one measure's change to
            one surviving membership, in place.
        """
        for key, (_regions, member) in list(self._designs.items()):
            design, measure = key
            change = slices.get(measure)
            if design.kind == "grid":
                survives = design.bounds is not None or (
                    state.bounding_box == self._state.bounding_box
                )
            else:
                survives = change is None
            if measure not in slices or not survives:
                del self._designs[key]
            elif change is not None:
                update(member, change)
                self.incremental_builds += 1
        self._state = state

    def append(
        self,
        coords: np.ndarray,
        outcomes: np.ndarray,
        y_true: np.ndarray | None = None,
        forecast: np.ndarray | None = None,
        timestamps: np.ndarray | None = None,
    ) -> int:
        """Stream a batch of newly arrived observations into the
        session.

        Cached membership matrices gain the new points' columns in
        place (:meth:`repro.index.RegionMembership.append_points`);
        k-means region designs whose data slice changed are rebuilt on
        next use; a measure whose slice is untouched by the batch —
        e.g. ``equal_opportunity`` when every arrival has
        ``y_true == 0`` — keeps its indexes as they are.
        Subsequent reports are bit-identical to a cold session over
        the concatenated arrays.  The grown arrays are a new
        read-only state; nothing is hashed here.

        Parameters
        ----------
        coords : ndarray of shape (k, 2)
            The new observation locations, in arrival order.
        outcomes : ndarray of shape (k,)
            Their audited outcomes.
        y_true, forecast, timestamps : ndarray of shape (k,), optional
            Auxiliary values for the new points.  Each is required
            exactly when the session was constructed with it.

        Returns
        -------
        int
            The number of points appended.
        """
        batch = self._check_batch(
            coords, outcomes, y_true, forecast, timestamps
        )
        self._append(*batch)
        return len(batch[0])

    def _check_batch(self, coords, outcomes, y_true, forecast, timestamps):
        """Validate an :meth:`append` batch against the session.

        Returns ``(coords, outcomes, y_true, forecast, timestamps)`` as
        the session stores them.
        """
        coords = check_coords(coords)
        k = len(coords)
        outcomes = _numbers("outcomes", outcomes)
        if len(outcomes) != k:
            raise ValueError(
                "outcomes: length does not match coords "
                f"({len(outcomes)} vs {k})"
            )
        y_true = self._check_delta("y_true", self.y_true, y_true, k)
        forecast = self._check_delta(
            "forecast", self.forecast, forecast, k, dtype=np.float64
        )
        timestamps = self._check_delta(
            "timestamps", self.timestamps, timestamps, k,
            dtype=np.float64,
        )
        return coords, outcomes, y_true, forecast, timestamps

    def _append(
        self, coords, outcomes, y_true, forecast, timestamps
    ) -> None:
        """:meth:`append` of a checked batch."""
        if len(coords) == 0:
            return
        # Which measures' slices does the batch touch, and with which
        # measured coordinates?
        deltas: dict = {}
        for measure in {m for _, m in self._designs if m in MEASURES}:
            (added,) = MEASURES[measure].kept(
                coords, outcomes, y_true, coords
            )
            deltas[measure] = added if len(added) else None
        delta = {
            "coords": coords,
            "outcomes": outcomes,
            "y_true": y_true,
            "forecast": forecast,
            "timestamps": timestamps,
        }
        # The grown stamps are in order iff the old ones were, the
        # batch's are, and the batch starts no earlier than the old
        # newest stamp: O(batch), never a pass over the window.
        state = self._state
        old = state.timestamps
        in_order = (
            old is not None
            and state.in_order
            and _in_order(timestamps)
            and (len(old) == 0 or bool(timestamps[0] >= old[-1]))
        )
        self._migrate(
            state.derive(
                lambda name, arr: np.concatenate([arr, delta[name]]),
                in_order,
            ),
            deltas,
            RegionMembership.append_points,
        )

    def evict(
        self,
        mask: np.ndarray | None = None,
        *,
        older_than: float | None = None,
        window: float | None = None,
    ) -> int:
        """Expire observations from the session.

        The mirror of :meth:`append`: cached membership matrices drop
        the expired points' columns in place, and measures whose data
        slice lost no points are left untouched.  Subsequent reports
        are bit-identical to a cold session over the surviving arrays.
        The surviving arrays are a new read-only state; nothing is
        hashed here.

        A ``window``/``older_than`` selector over in-order timestamps
        (non-decreasing, no NaN) drops a prefix of the points, found by
        one binary search; so does a mask whose evicted points all
        precede its kept ones.  The surviving arrays are then read-only
        views ``arr[k:]`` of the previous state's, and nothing is
        copied.  A view keeps the previous arrays' memory alive until
        the next :meth:`append` concatenates them.  Any other eviction (out-of-order or NaN
        timestamps, a scattered mask) copies the kept rows.

        Exactly one selector must be given.  Every time selector
        evicts the points whose timestamp is NaN.

        Parameters
        ----------
        mask : bool ndarray of shape (n,), optional
            ``True`` marks the points to evict.
        older_than : float, optional
            Evict points whose timestamp is strictly below this value,
            or NaN (needs the session constructed with
            ``timestamps=``).
        window : float, optional
            Sliding time window: keep only points whose timestamp is
            within ``window`` of the newest timestamp (inclusive);
            evict the rest, NaN stamps included.  Needs
            ``timestamps=``.

        Returns
        -------
        int
            The number of points evicted.
        """
        n = len(self.coords)
        self._evict(self._evict_keep(mask, older_than, window))
        return n - len(self.coords)

    def _check_selector(self, n: int, mask, older_than, window) -> None:
        """Validate :meth:`evict`'s selector against a dataset of ``n``
        points, so a caller can reject it before mutating anything."""
        if sum(x is not None for x in (mask, older_than, window)) != 1:
            raise ValueError(
                "evict: pass exactly one of mask, older_than or window"
            )
        if mask is not None:
            drop = np.asarray(mask)
            if drop.dtype != np.bool_ or drop.shape != (n,):
                raise ValueError(
                    "mask: expected a boolean mask of length "
                    f"{n}, got dtype {drop.dtype} and shape "
                    f"{drop.shape}"
                )
            return
        if self.timestamps is None:
            raise ValueError(
                "evict: older_than/window selectors need the "
                "session constructed with timestamps="
            )
        # Convert here, so a non-numeric selector raises before any
        # change too.
        value = float(window if older_than is None else older_than)
        if window is not None and value < 0:
            raise ValueError(f"window: must be non-negative, got {value}")

    def _evict_keep(self, mask, older_than, window):
        """What an :meth:`evict` selector keeps of the current data:
        an int ``k`` when it drops exactly the first ``k`` points, else
        the bool keep mask."""
        self._check_selector(len(self.coords), mask, older_than, window)
        if mask is not None:
            keep = ~np.asarray(mask)
            drop = dropped_prefix(keep)
            return keep if drop is None else drop
        state = self._state
        ts = state.timestamps
        if len(ts) == 0:
            return 0
        if older_than is not None:
            cutoff = float(older_than)
        else:
            # fmax skips NaN stamps, and warns of none.
            newest = ts[-1] if state.in_order else np.fmax.reduce(ts)
            cutoff = float(newest) - float(window)
        if state.in_order:
            # Everything before the first stamp >= cutoff is older.
            return int(np.searchsorted(ts, cutoff, side="left"))
        return ts >= cutoff

    def _evict(self, keep) -> None:
        """Keep only the ``keep`` rows of the dataset: a bool mask, or
        an int ``k`` for all rows but the first ``k`` (as views)."""
        state = self._state
        if isinstance(keep, int):
            drop = keep
            if drop == 0:
                return
            keep = np.ones(len(state.coords), dtype=bool)
            keep[:drop] = False

            def take(name, arr):
                return arr[drop:]
        else:
            if keep.all():
                return

            def take(name, arr):
                return np.compress(keep, arr, axis=0)
        # Each measure keeps its own rows of the keep mask (a prefix
        # stays a prefix, which evict_points detects).  A slice that
        # emptied out gets no entry: its caches retire, so the cold
        # path reports the canonical no-observations error on next use.
        keeps: dict = {}
        for measure in {m for _, m in self._designs if m in MEASURES}:
            (mkeep,) = MEASURES[measure].kept(
                state.coords, state.outcomes, state.y_true, keep
            )
            if mkeep.any():
                keeps[measure] = None if mkeep.all() else mkeep
        # Survivors of in-order stamps stay in order; any other state
        # checks its survivors, which may have shed the offenders.
        self._migrate(
            state.derive(take, True if state.in_order else None),
            keeps,
            RegionMembership.evict_points,
        )

    # -- running specs --------------------------------------------------

    def _check_spec(self, spec) -> None:
        if not isinstance(spec, AuditSpec):
            raise ValueError(
                "spec: expected an AuditSpec, got "
                f"{type(spec).__name__} — parse dicts/JSON with "
                "AuditSpec.from_dict/from_json first"
            )

    def resolve(self, spec: AuditSpec) -> ResolvedSpec:
        """Materialise a spec's cached intermediates without running it.

        Validates the spec against this session's data, builds (or
        fetches from cache) its region set and membership index, and
        constructs its Monte Carlo kernel.  Fused batch executors
        (:class:`repro.serve.AuditService`) resolve every submitted
        spec first, then group the resolutions by
        ``kernel.cache_key()`` to share simulated worlds.

        Parameters
        ----------
        spec : AuditSpec

        Returns
        -------
        ResolvedSpec

        Raises
        ------
        ValueError
            When the session lacks data the spec needs, or the spec's
            region design yields no scannable regions.
        """
        self._check_spec(spec)
        regions, member = self._design(spec.regions, spec.measure)
        bound = self._state.bound(spec.family, spec.measure)
        kernel = FAMILIES[spec.family].kernel(
            bound, _parse_direction(spec.direction)
        )
        _check_member(member, "spec.regions")
        return ResolvedSpec(
            spec=spec,
            engine=self._engine,
            bound=bound,
            regions=regions,
            member=member,
            kernel=kernel,
        )

    def run(self, spec: AuditSpec) -> AuditReport:
        """Run one declarative audit request.

        Parameters
        ----------
        spec : AuditSpec
            A validated request; dicts/JSON must be parsed first via
            :meth:`repro.spec.AuditSpec.from_dict` / ``from_json``.

        Returns
        -------
        AuditReport

        Raises
        ------
        ValueError
            When the session lacks data the spec needs (forecast,
            y_true, ...), or the spec's region design yields no
            scannable regions.
        """
        return self._run_group([self.resolve(spec)])[0]

    def _run_group(self, resolutions: list) -> list:
        """Run resolved specs that share a fusion group key (see
        :meth:`repro.serve.AuditService.plan`): simulate the group's
        null worlds in one pass, then assemble one report per spec, in
        order, through :func:`repro.core._scan_group`.  :meth:`run` is
        the group of one, so
        fused and solo reports agree by construction."""
        first = resolutions[0]
        # Each spec's effective request is its explicit workers if set,
        # else the session default; the pass runs at the max of those,
        # so no spec is slowed below what it asked for.  The worker
        # count changes no result.
        requested = [
            r.spec.workers if r.spec.workers is not None else self.workers
            for r in resolutions
        ]
        workers = max(
            (w for w in requested if w is not None), default=None
        )
        results = _scan_group(
            self._engine,
            first.kernel,
            [r.member for r in resolutions],
            [self._state.observed(r) for r in resolutions],
            [r.spec.alpha for r in resolutions],
            _parse_direction(first.spec.direction),
            [r.spec.correction for r in resolutions],
            first.spec.n_worlds,
            first.spec.seed,
            workers,
            first.spec.budget,
        )
        return [
            AuditReport(spec=r.spec, result=result)
            for r, result in zip(resolutions, results)
        ]

    def run_many(self, specs: Sequence[AuditSpec]) -> list:
        """Run a batch of requests over the shared indexes.

        Specs are executed in the given order; every cached
        intermediate (measured slices, region sets, membership
        matrices) is shared across the batch, so specs over the same
        region design share one membership index.  Each spec
        simulates its own null worlds;
        :meth:`repro.serve.AuditService.run_batch` fuses specs that
        share a null model into one simulation.

        Parameters
        ----------
        specs : sequence of AuditSpec

        Returns
        -------
        list of AuditReport
            One report per spec, in order.
        """
        return [self.run(spec) for spec in specs]


class AuditBuilder:
    """Fluent construction of one audit request against a session.

    Every setter returns the builder, so a full audit reads as one
    chain; :meth:`spec` yields the equivalent
    :class:`repro.spec.AuditSpec` (bit-identical results by
    construction) and :meth:`run` executes it::

        repro.audit(coords, y_pred).partition(50, 25).worlds(999).run()
    """

    def __init__(self, session: AuditSession):
        self._session = session
        self._regions: RegionSpec | None = None
        self._fields: dict = {}

    @property
    def session(self) -> AuditSession:
        """The bound session (reusable across builders)."""
        return self._session

    def family(self, name: str) -> "AuditBuilder":
        """Set the outcome family (``'bernoulli'`` default)."""
        self._fields["family"] = name
        return self

    def measure(self, name: str) -> "AuditBuilder":
        """Set the fairness measure (``'statistical_parity'``
        default)."""
        self._fields["measure"] = name
        return self

    def partition(
        self, nx: int, ny: int | None = None, bounds: tuple | None = None
    ) -> "AuditBuilder":
        """Scan a regular ``nx x ny`` grid partitioning."""
        self._regions = RegionSpec.grid(nx, ny, bounds=bounds)
        return self

    def squares(
        self,
        n_centers: int,
        sides: tuple = (),
        centers_seed: int = 0,
    ) -> "AuditBuilder":
        """Scan squares around k-means centres (paper geometry)."""
        self._regions = RegionSpec.squares(
            n_centers, sides=sides, centers_seed=centers_seed
        )
        return self

    def circles(
        self,
        n_centers: int,
        radii: tuple,
        centers_seed: int = 0,
    ) -> "AuditBuilder":
        """Scan circles around k-means centres (Kulldorff geometry)."""
        self._regions = RegionSpec.circles(
            n_centers, radii, centers_seed=centers_seed
        )
        return self

    def regions(self, design: RegionSpec) -> "AuditBuilder":
        """Use an explicit :class:`RegionSpec` design."""
        self._regions = design
        return self

    def worlds(self, n_worlds: int) -> "AuditBuilder":
        """Set the Monte Carlo world budget."""
        self._fields["n_worlds"] = n_worlds
        return self

    def alpha(self, alpha: float) -> "AuditBuilder":
        """Set the significance level."""
        self._fields["alpha"] = alpha
        return self

    def direction(self, direction: str) -> "AuditBuilder":
        """Set the scan direction (``'lower'``/``'higher'``/...)."""
        self._fields["direction"] = direction
        return self

    def correction(self, correction: str) -> "AuditBuilder":
        """Set the per-region multiple-testing correction."""
        self._fields["correction"] = correction
        return self

    def budget(self, budget) -> "AuditBuilder":
        """Set the world-budget policy (``'fixed'``/``'adaptive'`` or
        a :class:`repro.budget.BudgetPolicy`)."""
        self._fields["budget"] = budget
        return self

    def seed(self, seed: int) -> "AuditBuilder":
        """Set the Monte Carlo master seed."""
        self._fields["seed"] = seed
        return self

    def workers(self, workers: int) -> "AuditBuilder":
        """Set the Monte Carlo worker-thread count."""
        self._fields["workers"] = workers
        return self

    def spec(self) -> AuditSpec:
        """The accumulated request as a validated
        :class:`AuditSpec`.

        Returns
        -------
        AuditSpec

        Raises
        ------
        ValueError
            When no region design was chosen yet.
        """
        if self._regions is None:
            raise ValueError(
                "regions: no region design chosen — call .partition(), "
                ".squares(), .circles() or .regions() first"
            )
        return AuditSpec(regions=self._regions, **self._fields)

    def run(self) -> AuditReport:
        """Build the spec and run it on the bound session."""
        return self._session.run(self.spec())


def audit(
    coords: np.ndarray,
    outcomes: np.ndarray,
    y_true: np.ndarray | None = None,
    forecast: np.ndarray | None = None,
    n_classes: int | None = None,
    workers: int | None = None,
    timestamps: np.ndarray | None = None,
) -> AuditBuilder:
    """Start a fluent audit of point-located outcomes.

    Binds the data into a fresh :class:`AuditSession` and returns an
    :class:`AuditBuilder`; chain the design and parameters, then
    ``.run()``::

        report = (repro.audit(coords, y_pred)
                  .partition(50, 25).worlds(999).seed(1).run())
        print(report.summary())

    Parameters
    ----------
    coords, outcomes, y_true, forecast, n_classes, workers, timestamps
        As in :class:`AuditSession`.

    Returns
    -------
    AuditBuilder
    """
    return AuditBuilder(
        AuditSession(
            coords,
            outcomes,
            y_true=y_true,
            forecast=forecast,
            n_classes=n_classes,
            workers=workers,
            timestamps=timestamps,
        )
    )
