"""The spatial-fairness audit core.

Implements the framework of *Auditing for Spatial Fairness* (Sacharidis,
Giannopoulos, Papastefanatos, Stefanidis; EDBT 2023): given outcomes of
an algorithm at point locations and a predetermined set of candidate
regions, test the null hypothesis that outcomes are independent of
location ("spatially uniform likelihood", SUL) with a Monte Carlo
max-statistic scan, and localise the regions responsible.

Every audit is parameterised by a :class:`ScanFamily` from the
:data:`FAMILIES` registry — new outcome families register instead of
subclassing.  Three registered families ship:

* ``"bernoulli"`` — binary outcomes (Bernoulli scan, the paper's
  setting);
* ``"poisson"`` — observed-vs-forecast count data (Kulldorff's Poisson
  model, the intro's crime-forecast motivation);
* ``"multinomial"`` — categorical outcomes.

Every audit takes the same three steps: the family's observed scan of
the design, the engine's null max-statistic distribution, and the
assembly that reads p-values, significant regions and the verdict off
the two.  One runner, :func:`_scan_group`, takes them for a whole
fusion group at once: one simulation pass, one result per design.
The one front door — serializable :class:`repro.spec.AuditSpec`
requests run by a :class:`repro.api.AuditSession` (:mod:`repro.spec`,
:mod:`repro.api`) — hands it each group; :class:`PowerAnalysis` hands
it one design per simulated trial.  Both check their Monte Carlo
fields through one function, :func:`_run_fields`.

The Monte Carlo step is vectorized end-to-end: simulated worlds are a
``(n_points, n_worlds)`` matrix and per-region recounting is a single
sparse mat-vec through :class:`repro.index.RegionMembership`.  The
caller owns each design's membership index (a session per design and
measure, a power analysis its one design); the
:class:`repro.engine.MonteCarloEngine` that runs the null pass holds
no coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .budget import _err, _int, _real, _workers, clopper_pearson
from .engine import (
    BernoulliKernel,
    LLRKernel,
    MonteCarloEngine,
    MultinomialKernel,
    PoissonKernel,
)
from .geometry import (
    GridPartitioning,
    Rect,
    RegionSet,
    check_coords,
)
from .index import RegionMembership
from .kernels import bernoulli_llr, multinomial_llr, poisson_llr
from .stats import benjamini_hochberg

__all__ = [
    "Finding",
    "RegionColumns",
    "AuditResult",
    "ObservedScan",
    "ScanFamily",
    "FAMILIES",
    "register_family",
    "MeasureDef",
    "MEASURES",
    "register_measure",
    "CORRECTIONS",
    "select_non_overlapping",
    "log_likelihood_ratio",
    "PowerAnalysis",
    "PowerEstimate",
    "GerrymanderScore",
    "gerrymander_score",
]

#: Scan directions by name and alias: 0 two-sided, -1 "lower inside",
#: +1 "higher inside".
_DIRECTIONS = {
    None: 0,
    "two-sided": 0,
    "both": 0,
    "lower": -1,
    "red": -1,
    "higher": 1,
    "green": 1,
}

#: The canonical name of each direction code.
_DIRECTION_NAMES = {0: "two-sided", -1: "lower", 1: "higher"}


def _parse_direction(direction) -> int:
    """The code of a direction name or alias, or a ValueError naming
    ``direction``."""
    try:
        return _DIRECTIONS[direction]
    except (KeyError, TypeError):
        valid = ", ".join(repr(k) for k in _DIRECTIONS if k)
        raise _err(
            "direction",
            f"unknown direction {direction!r}; expected None, {valid}",
        ) from None


def _run_fields(
    family: str,
    n_worlds,
    alpha,
    direction,
    correction,
    seed,
    workers,
) -> tuple:
    """The Monte Carlo fields of one audit, checked and canonical:
    ``(n_worlds, alpha, direction, correction, seed, workers)`` with
    the direction as its canonical name (``'two-sided'``, ``'lower'``
    or ``'higher'``).  ``family`` is a :data:`FAMILIES` name; ``seed``
    and ``workers`` may be ``None``.

    :class:`repro.spec.AuditSpec` and :class:`PowerAnalysis` both
    check their fields here, so the two accept the same values; the
    first invalid field raises a ValueError that names it.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise _err(
            "family",
            f"unknown family {family!r}; registered: {sorted(FAMILIES)}",
        )
    n_worlds = _int("n_worlds", n_worlds, 1)
    alpha = _real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise _err("alpha", f"must lie in (0, 1), got {alpha}")
    code = _parse_direction(direction)
    if code != 0 and not FAMILIES[family].directional:
        raise _err(
            "direction",
            f"family {family!r} does not support directional scans; "
            f"it scans two-sided only (got {direction!r})",
        )
    if correction not in CORRECTIONS:
        raise _err(
            "correction",
            f"unknown correction {correction!r}; expected one of "
            f"{CORRECTIONS}",
        )
    if seed is not None:
        # numpy's SeedSequence takes non-negative entropy only.
        seed = _int("seed", seed, 0)
    return (
        n_worlds, alpha, _DIRECTION_NAMES[code], correction, seed,
        _workers(workers),
    )


def log_likelihood_ratio(n, p, total_n, total_p) -> np.ndarray:
    """Two-sided Bernoulli scan log-likelihood ratio.

    Convenience re-export of :func:`repro.kernels.bernoulli_llr` with the
    argument order used throughout the paper's tables: region counts
    first, global totals second.

    Parameters
    ----------
    n, p : array_like
        Region observation and positive counts.
    total_n, total_p : float
        Global totals.

    Returns
    -------
    ndarray of float64
    """
    return bernoulli_llr(n, p, float(total_n), float(total_p))


@dataclass(frozen=True)
class Finding:
    """The audit's evidence about one candidate region.

    Attributes
    ----------
    index : int
        Position of the region in the scanned :class:`RegionSet`.
    center_id : int
        Scan centre (or grid cell) the region belongs to.
    rect : Rect
        The region's rectangle (bounding square for circles).
    n : int
        Observations inside the region.
    p : int
        Positive outcomes inside (Bernoulli); observed events
        (Poisson); count of the modal class (multinomial).
    rho_in : float
        Positive rate inside (Bernoulli); observed/expected ratio
        (Poisson).
    llr : float
        The scan statistic (log-likelihood ratio) of the region.
    p_value : float
        Monte Carlo max-statistic adjusted p-value.
    significant : bool
        ``p_value <= alpha`` for the audit's significance level.
    direction : int
        +1 when the region's rate (or count) is above its complement,
        -1 when below, 0 when degenerate.
    class_rates : tuple of float, optional
        Per-class outcome rates inside the region (multinomial only).
    """

    index: int
    center_id: int
    rect: Rect
    n: int
    p: int
    rho_in: float
    llr: float
    p_value: float
    significant: bool
    direction: int
    class_rates: tuple = ()

    @property
    def is_red(self) -> bool:
        """True when the region's rate is *below* its complement."""
        return self.direction < 0

    @property
    def is_green(self) -> bool:
        """True when the region's rate is *above* its complement."""
        return self.direction > 0

    def describe(self) -> str:
        """One-line human-readable description of the finding."""
        star = "*" if self.significant else ""
        return (
            f"{self.rect.describe()} n={self.n} p={self.p} "
            f"rate_in={self.rho_in:.2f} llr={self.llr:.1f} "
            f"p={self.p_value:.4g}{star}"
        )


@dataclass(frozen=True, eq=False)
class RegionColumns:
    """The audit's evidence about every candidate region, one array
    per :class:`Finding` field.

    Assembly keeps these columns on the :class:`AuditResult` and
    builds :class:`Finding` objects only for the regions a caller
    reads.  Every array has one entry per region, in region order, and
    is a read-only copy, so a result cannot change after assembly.

    Attributes
    ----------
    regions : RegionSet
        The scanned regions; each :class:`Finding` takes its
        ``center_id`` and ``rect`` from here.
    n, p : ndarray of int64
        Observations and the family's evidence count per region (see
        :class:`Finding`).
    rho_in, llr, p_value : ndarray of float64
        Inside rate (or observed/expected ratio), scan statistic and
        max-statistic adjusted p-value per region.
    significant : ndarray of bool
        The per-region flags of the audit's correction.
    direction : ndarray of int64
        Sign of each region's deviation from its complement.
    class_rates : ndarray of float64, shape (n_regions, K), or None
        Per-class rates inside each region (multinomial only).
    """

    regions: RegionSet
    n: np.ndarray
    p: np.ndarray
    rho_in: np.ndarray
    llr: np.ndarray
    p_value: np.ndarray
    significant: np.ndarray
    direction: np.ndarray
    class_rates: np.ndarray | None = None

    def _columns(self) -> tuple:
        return (
            self.n,
            self.p,
            self.rho_in,
            self.llr,
            self.p_value,
            self.significant,
            self.direction,
        )

    @functools.cached_property
    def _scalars(self) -> tuple:
        return tuple(column.tolist() for column in self._columns())

    def rows(self, idx: list | None = None):
        """Iterate ``(index, n, p, rho_in, llr, p_value, significant,
        direction)`` as Python scalars for each region index in
        ``idx`` (a list of ints; every region, in order, when
        ``None``).  Every region's columns convert to Python scalars
        once, on first use, and are kept; a list of indices converts
        only its own entries."""
        if idx is None:
            return zip(range(len(self.n)), *self._scalars)
        at = np.asarray(idx, dtype=np.intp)
        return zip(idx, *(column[at].tolist() for column in self._columns()))

    def findings(self, idx: list | None = None) -> list:
        """The :class:`Finding` of each region index in ``idx`` (a list
        of ints; every region, in order, when ``None``)."""
        regions = self.regions
        rates = self.class_rates
        return [
            Finding(
                index=i,
                center_id=regions[i].center_id,
                rect=regions[i].rect,
                n=n,
                p=p,
                rho_in=rho_in,
                llr=stat,
                p_value=p_value,
                significant=sig,
                direction=sign,
                class_rates=tuple(rates[i]) if rates is not None else (),
            )
            for i, n, p, rho_in, stat, p_value, sig, sign in self.rows(idx)
        ]

    @functools.cached_property
    def _significant_order(self) -> np.ndarray:
        idx = np.flatnonzero(self.significant)
        order = idx[np.argsort(-self.llr[idx], kind="stable")]
        order.flags.writeable = False
        return order

    def significant_order(self) -> np.ndarray:
        """Indices of the significant regions, highest statistic first;
        equal statistics keep region order.  Computed once; the array
        is read-only."""
        return self._significant_order

    def best_index(self) -> int | None:
        """Index of the region with the strongest evidence: the first
        of :meth:`significant_order`, else the first region of highest
        statistic among those with an observation; ``None`` when no
        region has one."""
        order = self.significant_order()
        if len(order):
            return int(order[0])
        occupied = np.flatnonzero(self.n > 0)
        if not len(occupied):
            return None
        return int(occupied[np.argmax(self.llr[occupied])])


@dataclass(eq=False)
class AuditResult:
    """Everything a spatial-fairness audit concluded.

    The per-region evidence is kept as arrays (:attr:`columns`); the
    :class:`Finding` objects of :attr:`findings`,
    :attr:`significant_findings` and :attr:`best_finding` are built
    from them on first access and cached.

    Attributes
    ----------
    columns : RegionColumns
        Every region's evidence, one array per :class:`Finding` field.
    p_value : float
        Monte Carlo p-value of the observed maximum statistic: the
        probability, under spatial fairness, of seeing a scan maximum
        at least as extreme.
    alpha : float
        The significance level the audit ran at.
    critical_value : float
        Empirical (1 - alpha) quantile of the null max-statistic
        distribution; a region is significant when its statistic
        exceeds it.
    total_n, total_p : int
        Global observation and positive counts.
    n_worlds : int
        Number of null worlds actually simulated (with an adaptive
        budget this is the stopping time, at most
        ``n_worlds_requested``).
    n_regions : int
        Number of scanned regions.
    direction : int
        0 two-sided, +1 "higher inside", -1 "lower inside".
    correction : str
        Multiple-testing correction behind the per-region
        ``significant`` flags: ``'max-stat'`` (the paper's exact FWER
        control) or ``'fdr-bh'`` (Benjamini–Hochberg run on top of the
        adjusted p-values — a stricter, higher-precision flagged set;
        see :data:`CORRECTIONS`).
    n_worlds_requested : int
        The world budget the audit asked for (``0`` in legacy
        constructions means "same as ``n_worlds``").
    stopped_early : bool
        Whether an adaptive budget settled the verdict before
        spending the full budget (``n_worlds < n_worlds_requested``).
    p_value_ci : tuple of float
        95% Clopper–Pearson interval for the exceedance probability
        the Monte Carlo p-value estimates
        (:func:`repro.budget.clopper_pearson`).
    """

    columns: RegionColumns
    p_value: float
    alpha: float
    critical_value: float
    total_n: int
    total_p: int
    n_worlds: int
    n_regions: int
    direction: int = 0
    correction: str = "max-stat"
    n_worlds_requested: int = 0
    stopped_early: bool = False
    p_value_ci: tuple = ()
    _findings: list = field(default=None, init=False, repr=False)
    _significant: list = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        # Field by field, as a dataclass compares, with the region
        # evidence compared through its findings.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.findings == other.findings and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.init and f.name != "columns"
        )

    def _findings_at(self, idx: list | None) -> list:
        """The :class:`Finding` of each region index in ``idx`` (every
        region when ``None``)."""
        if self._findings is not None:
            return [self._findings[i] for i in idx]
        return self.columns.findings(idx)

    @property
    def findings(self) -> list:
        """One :class:`Finding` per scanned region, in region order
        (built on first access, then cached)."""
        if self._findings is None:
            self._findings = self._findings_at(None)
        return self._findings

    @property
    def is_fair(self) -> bool:
        """Verdict: ``True`` when fairness cannot be rejected at
        ``alpha``."""
        return self.p_value > self.alpha

    @property
    def significant_findings(self) -> list:
        """Significant findings, strongest (highest statistic) first;
        equal statistics keep region order."""
        if self._significant is None:
            self._significant = self._findings_at(
                self.columns.significant_order().tolist()
            )
        return self._significant

    @property
    def best_finding(self):
        """The region with the strongest evidence: the first
        significant finding, else the first region of highest
        statistic among those with an observation; ``None`` when no
        region contains any observation."""
        i = self.columns.best_index()
        return None if i is None else self._findings_at([i])[0]

    def top_regions(self, k: int) -> list:
        """The ``k`` strongest significant findings.

        Raises
        ------
        ValueError
            Naming ``k`` when it is negative, a bool or not an
            integer.
        """
        return self.significant_findings[: _int("k", k, 0)]

    @property
    def global_rate(self) -> float:
        """Global positive rate ``P / N``."""
        return self.total_p / max(self.total_n, 1)

    def summary(self) -> str:
        """Multi-line report: verdict, p-value, strongest evidence."""
        verdict = "FAIR" if self.is_fair else "UNFAIR"
        dir_txt = {0: "two-sided", 1: "higher-inside", -1: "lower-inside"}[
            self.direction
        ]
        worlds_txt = f"{self.n_worlds} null worlds"
        if self.stopped_early:
            worlds_txt = (
                f"{self.n_worlds}/{self.n_worlds_requested} null "
                "worlds (stopped early)"
            )
        lines = [
            f"spatial fairness audit: {self.n_regions} regions, "
            f"{worlds_txt}, alpha={self.alpha:g} "
            f"({dir_txt})",
            f"verdict: {verdict} (p-value {self.p_value:.4f})",
            f"critical value {self.critical_value:.2f}; "
            f"{int(self.columns.significant.sum())} significant region(s)",
        ]
        best = self.best_finding
        if best is not None:
            lines.append(
                f"strongest evidence: {best.describe()} "
                f"(global rate {self.global_rate:.2f})"
            )
        return "\n".join(lines)


#: Multiple-testing corrections an audit understands for the
#: per-region ``significant`` flags.  ``'max-stat'`` is the paper's
#: exact family-wise control (a region is significant when its
#: max-statistic adjusted p-value is at most ``alpha``).  ``'fdr-bh'``
#: additionally runs Benjamini–Hochberg *on top of* those adjusted
#: p-values: the flagged set is a (weakly) stricter subset of the
#: ``'max-stat'`` one whose expected false-discovery fraction is also
#: bounded by ``alpha`` — a higher-precision region list, not a
#: power gain.
CORRECTIONS = ("max-stat", "fdr-bh")


@dataclass(frozen=True)
class ObservedScan:
    """The observed (non-simulated) statistics of one scan, as computed
    by a :class:`ScanFamily`.

    Attributes
    ----------
    n : ndarray of shape (n_regions,)
        Observations per region.
    p : ndarray of shape (n_regions,)
        The family's per-region evidence count (positives, observed
        events, modal-class count).
    llr : ndarray of shape (n_regions,)
        The scan statistic per region.
    rho_in : ndarray of shape (n_regions,)
        Rate (or observed/expected ratio) inside each region.
    direction_arr : ndarray of shape (n_regions,)
        Sign of each region's deviation from its complement.
    total_n, total_p : int
        Global totals for :class:`AuditResult`.
    class_rates : ndarray of shape (n_regions, K), optional
        Per-class rates inside each region (multinomial only).
    """

    n: np.ndarray
    p: np.ndarray
    llr: np.ndarray
    rho_in: np.ndarray
    direction_arr: np.ndarray
    total_n: int
    total_p: int
    class_rates: np.ndarray | None = None


class ScanFamily:
    """One outcome family of the scan audit.

    A family knows how to *bind* raw session data (validating it and
    precomputing totals), how to compute the *observed* per-region
    statistics, and which Monte Carlo *kernel* simulates its null
    worlds.  A session supplies everything else — membership indexing,
    and through :func:`_scan_group` null simulation, correction and
    assembly — so a new scenario is one :func:`register_family` call,
    not a new front-end class.

    Subclasses set :attr:`name` (the registry key and
    ``AuditSpec.family`` value) and :attr:`directional`, and implement
    :meth:`bind`, :meth:`observed` and :meth:`kernel`.
    """

    #: Registry key; the value of ``AuditSpec.family``.
    name = "family"

    #: Whether the family supports directional ('lower'/'higher') scans.
    directional = True

    def bind(
        self,
        coords: np.ndarray,
        outcomes: np.ndarray,
        forecast: np.ndarray | None = None,
        n_classes: int | None = None,
    ) -> dict:
        """Validate raw data and return the family's bound state.

        Parameters
        ----------
        coords : ndarray of shape (n, 2)
        outcomes : ndarray of shape (n,)
            Binary labels, observed counts, or class labels — the
            family's own reading.
        forecast : ndarray of shape (n,), optional
            Expected counts (Poisson family only).
        n_classes : int, optional
            Number of classes (multinomial family only).

        Returns
        -------
        dict
            Opaque bound state consumed by :meth:`observed` and
            :meth:`kernel`.
        """
        raise NotImplementedError

    def observed(
        self, bound: dict, member: RegionMembership, direction: int
    ) -> ObservedScan:
        """Observed per-region statistics of the bound data."""
        raise NotImplementedError

    def kernel(self, bound: dict, direction: int) -> LLRKernel:
        """The Monte Carlo kernel simulating this family's null."""
        raise NotImplementedError


#: Registry of outcome families by name; see :func:`register_family`.
FAMILIES: dict = {}


def register_family(family: ScanFamily) -> ScanFamily:
    """Register an outcome family under ``family.name``.

    Registered families are valid ``AuditSpec.family`` values and
    drive every audit directly — adding a scenario is a registration,
    not a new code path.

    Parameters
    ----------
    family : ScanFamily

    Returns
    -------
    ScanFamily
        The family itself, so the call composes as a decorator-like
        one-liner.
    """
    FAMILIES[family.name] = family
    return family


@dataclass(frozen=True)
class MeasureDef:
    """A registered fairness measure: which rows of the bound dataset
    an audit scans, and what each kept row's outcome is.

    Attributes
    ----------
    name : str
        Registry key; the value of ``AuditSpec.measure``.
    rows : callable or None
        ``(coords, outcomes, y_true) -> bool ndarray of shape (n,)``
        marking the rows the measure keeps; ``None`` keeps every row.
        A row mask commutes with concatenation and subsetting, so
        streaming sessions map appends/evictions onto each measure's
        slice (:meth:`repro.api.AuditSession.append`).
    outcome : callable or None
        ``(outcomes, y_true) -> outcomes`` of the kept rows; ``None``
        keeps the outcomes as given.
    families : tuple of str or None
        Families the measure applies to; ``None`` means every
        registered family, including ones registered later.
    needs_y_true : bool
        Whether the session must carry ground-truth labels.
    """

    name: str
    rows: Callable | None = None
    outcome: Callable | None = None
    families: tuple | None = None
    needs_y_true: bool = False

    def kept(self, coords, outcomes, y_true, *arrays) -> list:
        """Each of ``arrays`` (row-aligned with ``coords``; None stays
        None) on the rows :attr:`rows` keeps, or the arrays themselves
        without a row mask.  A ValueError names ``measure`` when the
        mask does not fit the rows."""
        if self.rows is None:
            return list(arrays)
        keep = np.asarray(self.rows(coords, outcomes, y_true), dtype=bool)
        if keep.shape != (len(coords),):
            raise _err("measure", f"{self.name!r} rows gave {keep.shape}")
        return [
            None if arr is None else np.compress(keep, arr, axis=0)
            for arr in arrays
        ]

    def extract(self, coords, outcomes, y_true) -> tuple:
        """``(coords, outcomes)`` of the kept rows, outcomes mapped;
        the arrays given when the measure keeps and maps nothing."""
        coords, outcomes, y_true = self.kept(
            coords, outcomes, y_true, coords, outcomes, y_true
        )
        if self.outcome is not None:
            outcomes = np.asarray(self.outcome(outcomes, y_true))
        return coords, outcomes


#: Registry of measures by name; see :func:`register_measure`.
MEASURES: dict = {}


def register_measure(measure: MeasureDef) -> MeasureDef:
    """Register a measure under ``measure.name`` (returns it back).

    Parameters
    ----------
    measure : MeasureDef

    Returns
    -------
    MeasureDef
    """
    MEASURES[measure.name] = measure
    return measure


def _assemble(
    regions: RegionSet,
    obs: ObservedScan,
    null_max: np.ndarray,
    alpha: float,
    direction: int,
    correction: str,
    n_worlds_requested: int,
) -> AuditResult:
    n_worlds = len(null_max)
    llr = obs.llr
    sorted_null = np.sort(null_max)
    # Max-statistic adjusted p-value per region, and for the scan
    # maximum itself (the audit's verdict).
    counts_ge = n_worlds - np.searchsorted(
        sorted_null, llr - 1e-12, side="left"
    )
    p_values = (1.0 + counts_ge) / (n_worlds + 1.0)
    observed_max = float(llr.max()) if len(llr) else 0.0
    global_count = n_worlds - np.searchsorted(
        sorted_null, observed_max - 1e-12, side="left"
    )
    global_p = (1.0 + global_count) / (n_worlds + 1.0)
    k = max(1, int(np.floor(alpha * (n_worlds + 1))))
    critical = float(sorted_null[n_worlds - k])
    tol = alpha * (1.0 + 1e-9)
    if correction == "fdr-bh":
        sig_mask = benjamini_hochberg(p_values, alpha) & (llr > 0.0)
    else:
        sig_mask = (p_values <= tol) & (llr > 0.0)
    columns = RegionColumns(
        regions=regions,
        n=np.asarray(obs.n).astype(np.int64),
        p=np.asarray(obs.p).astype(np.int64),
        rho_in=np.array(obs.rho_in, dtype=np.float64),
        llr=llr.astype(np.float64),
        p_value=p_values,
        significant=sig_mask.astype(bool),
        direction=np.asarray(obs.direction_arr).astype(np.int64),
        class_rates=(
            None
            if obs.class_rates is None
            else np.array(obs.class_rates, dtype=np.float64)
        ),
    )
    # The arrays above are fresh copies (``member.counts`` is a cached
    # index array); freezing them keeps the lazily built findings equal
    # to the columns they come from.
    for f in fields(columns)[1:]:
        array = getattr(columns, f.name)
        if array is not None:
            array.flags.writeable = False
    return AuditResult(
        columns=columns,
        p_value=float(global_p),
        alpha=float(alpha),
        critical_value=critical,
        total_n=int(obs.total_n),
        total_p=int(obs.total_p),
        n_worlds=n_worlds,
        n_regions=len(regions),
        direction=direction,
        correction=correction,
        n_worlds_requested=int(n_worlds_requested),
        stopped_early=n_worlds < n_worlds_requested,
        p_value_ci=clopper_pearson(int(global_count), n_worlds),
    )


def _check_member(member: RegionMembership, field: str) -> None:
    """Refuse a region design with nothing to scan: no regions, or no
    region holding any observation.  ``field`` names the offending
    input in the error."""
    if len(member) == 0:
        raise ValueError(
            f"{field}: the candidate region set is empty — "
            "there is nothing to scan"
        )
    if not member.counts.any():
        raise ValueError(
            f"{field}: no candidate region contains any "
            "observation — the region geometry does not cover the data"
        )


def _scan_group(
    engine: MonteCarloEngine,
    kernel: LLRKernel,
    members: list,
    observed: list,
    alphas: list,
    direction: int,
    corrections: list,
    n_worlds: int,
    seed: int | None,
    workers: int | None,
    budget,
) -> list:
    """Audit the designs of one fusion group: one null pass, then one
    :class:`AuditResult` per design, in order.

    Every audit runs here: a session's group of resolved specs
    (:meth:`repro.api.AuditSession._run_group`), and each trial of a
    :class:`PowerAnalysis` as a group of one.  The designs share the
    null model (``kernel``, hence the family and ``direction`` code),
    the world budget, ``seed``, ``workers`` and ``budget`` (``None`` is
    fixed); ``members``, ``observed``, ``alphas`` and ``corrections``
    hold one entry per design, each member already checked by
    :func:`_check_member`.
    """
    # An adaptive pass stops each design on its own (observed maximum,
    # alpha); a fixed one ignores both.
    nulls = engine.null_distribution_multi(
        members,
        kernel,
        n_worlds,
        seed=seed,
        workers=workers,
        budget=budget,
        observed_maxes=[float(obs.llr.max()) for obs in observed],
        alphas=list(alphas),
    )
    return [
        _assemble(
            member.regions,
            obs,
            null_max,
            alpha,
            direction,
            correction,
            n_worlds,
        )
        for member, obs, null_max, alpha, correction in zip(
            members, observed, nulls, alphas, corrections
        )
    ]


class BernoulliFamily(ScanFamily):
    """Binary outcomes: the paper's SUL test.

    Outcomes are 0/1 values or bools.  Null worlds redraw the labels
    i.i.d. Bernoulli at the global rate, locations fixed.
    """

    name = "bernoulli"
    directional = True

    def bind(self, coords, outcomes, forecast=None, n_classes=None):
        labels = np.asarray(outcomes).ravel()
        if labels.dtype != np.bool_:
            binary = (labels == 0) | (labels == 1)
            if not binary.all():
                raise ValueError(
                    "outcomes: family 'bernoulli' needs binary outcomes "
                    "(bool, or 0/1 values); got "
                    f"{labels[~binary][:1].tolist()[0]!r}"
                )
        labels = labels.astype(np.int8)
        if len(labels) != len(coords):
            raise ValueError(
                f"outcomes: length does not match coords "
                f"({len(labels)} vs {len(coords)})"
            )
        return {
            "labels": labels,
            "N": len(coords),
            "P": int(labels.sum()),
            "tables": {},
        }

    def observed(self, bound, member, direction):
        N, P = bound["N"], bound["P"]
        n = member.counts.astype(np.float64)
        p = member.positive_counts(bound["labels"].astype(np.float64))
        llr = bernoulli_llr(n, p, N, P, direction=direction)
        with np.errstate(invalid="ignore"):
            rho_in = np.where(n > 0, p / np.maximum(n, 1.0), 0.0)
            rho_out = np.where(
                N - n > 0, (P - p) / np.maximum(N - n, 1.0), P / N
            )
        return ObservedScan(
            n=n,
            p=p,
            llr=llr,
            rho_in=rho_in,
            direction_arr=np.sign(rho_in - rho_out).astype(int),
            total_n=N,
            total_p=P,
        )

    def kernel(self, bound, direction):
        kernel = BernoulliKernel(bound["N"], bound["P"], direction=direction)
        # Every kernel of one bound state draws from its alias tables.
        kernel._tables = bound["tables"]
        return kernel


class PoissonFamily(ScanFamily):
    """Observed-vs-forecast counts: Kulldorff's Poisson scan.

    The setting of the paper's introduction: a forecast assigns each
    area an expected event count, and spatial fairness of its accuracy
    means observed counts deviate from their expectations nowhere more
    than chance allows.  Outcomes are whole, non-negative event counts
    with a total below ``2**63``; the forecast is rescaled so the
    totals match, so the audit tests *relative* calibration.  Null
    worlds redistribute the observed total over the areas in
    proportion to the forecast, so the audit is exact given the total.
    ``'higher'`` hunts excess regions, ``'lower'`` deficits.
    """

    name = "poisson"
    directional = True

    def bind(self, coords, outcomes, forecast=None, n_classes=None):
        try:
            observed = np.asarray(outcomes, dtype=np.float64).ravel()
        except (TypeError, ValueError):
            raise ValueError(
                "outcomes: family 'poisson' needs numeric event counts"
            ) from None
        if forecast is None:
            raise ValueError(
                "family 'poisson' needs a forecast array of expected "
                "counts"
            )
        forecast = np.asarray(forecast, dtype=np.float64).ravel()
        if not (len(observed) == len(forecast) == len(coords)):
            raise ValueError(
                "coords, observed and forecast must share a length"
            )
        if not np.isfinite(observed).all() or (observed < 0).any():
            raise ValueError(
                "outcomes: family 'poisson' needs finite, non-negative "
                "event counts"
            )
        # The null draws whole events, int64 of them in all.
        if (observed != np.floor(observed)).any():
            raise ValueError(
                "outcomes: family 'poisson' needs whole event counts"
            )
        if observed.sum() >= 2.0**63:
            raise ValueError(
                "outcomes: family 'poisson' needs a total event count "
                "below 2**63"
            )
        if (
            not np.isfinite(forecast).all()
            or (forecast < 0).any()
            or forecast.sum() <= 0
        ):
            raise ValueError(
                "forecast must be finite, non-negative, not all 0"
            )
        total_obs = float(observed.sum())
        return {
            "observed": observed,
            "forecast": forecast,
            "expected": forecast * (total_obs / forecast.sum()),
            "O": total_obs,
            "N": len(coords),
            "tables": {},
        }

    def observed(self, bound, member, direction):
        total_obs = bound["O"]
        obs_r = member.positive_counts(bound["observed"])
        exp_r = member.positive_counts(bound["expected"])
        llr = poisson_llr(obs_r, exp_r, total_obs, direction=direction)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                exp_r > 0, obs_r / np.maximum(exp_r, 1e-300), 1.0
            )
        return ObservedScan(
            n=member.counts,
            p=obs_r,
            llr=llr,
            rho_in=ratio,
            direction_arr=np.sign(obs_r - exp_r).astype(int),
            total_n=bound["N"],
            total_p=int(total_obs),
        )

    def kernel(self, bound, direction):
        kernel = PoissonKernel(
            bound["expected"], bound["O"], direction=direction
        )
        # Every kernel of one bound state draws from one alias table.
        kernel._tables = bound["tables"]
        return kernel


class MultinomialFamily(ScanFamily):
    """Categorical outcomes: the multinomial scan.

    Spatial fairness of a multi-class system means the outcome *class
    distribution* is location-independent; the statistic generalises
    the Bernoulli log-likelihood ratio.  Outcomes are integer class
    labels in ``[0, n_classes)``, with ``n_classes`` at most the point
    count.  Null worlds redraw every label i.i.d. from the global class
    distribution, locations fixed.  The scan is two-sided only, and
    findings carry ``class_rates`` (per-class rates inside each
    region).
    """

    name = "multinomial"
    directional = False

    def bind(self, coords, outcomes, forecast=None, n_classes=None):
        labels = np.asarray(outcomes).ravel()
        try:
            values = labels.astype(np.float64)
        except (TypeError, ValueError):
            values = np.full(len(labels), np.nan)
        # Checked before the integer cast, which would truncate 2.7 to
        # class 2 and -0.5 to class 0 (and warn on NaN).
        whole = np.isfinite(values) & (values == np.floor(values))
        whole &= values >= 0
        if not whole.all():
            raise ValueError(
                "outcomes: family 'multinomial' needs non-negative "
                "integer class labels; got "
                f"{labels[~whole][:1].tolist()[0]!r}"
            )
        labels = labels.astype(np.int64)
        if len(labels) != len(coords):
            raise ValueError(
                "coords and labels must have the same length"
            )
        # The class count sizes every per-class array, so it may not
        # exceed the labelled points; a window evicted below a declared
        # count is refused the same way.
        named = "outcomes" if n_classes is None else "n_classes"
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if len(labels) else 0
        n_classes = _int("n_classes", n_classes)
        if n_classes > len(labels):
            raise ValueError(
                f"{named}: {n_classes} classes exceed the "
                f"{len(labels)} labelled points"
            )
        if len(labels) and labels.max() >= n_classes:
            raise ValueError("labels must lie in [0, n_classes)")
        return {
            "labels": labels,
            "n_classes": n_classes,
            "N": len(coords),
            "totals": np.bincount(
                labels, minlength=n_classes
            ).astype(np.float64),
        }

    def observed(self, bound, member, direction):
        labels = bound["labels"]
        N, K = bound["N"], bound["n_classes"]
        totals = bound["totals"]
        n = member.counts.astype(np.float64)
        class_counts = np.stack(
            [
                member.positive_counts(
                    (labels == k).astype(np.float64)
                )
                for k in range(K)
            ]
        )
        llr = multinomial_llr(n, zip(class_counts, totals), N)
        with np.errstate(invalid="ignore"):
            rates = np.where(
                n[None, :] > 0,
                class_counts / np.maximum(n[None, :], 1.0),
                0.0,
            )
        modal = class_counts.argmax(axis=0)
        p = class_counts[modal, np.arange(len(member))]
        rho_in = rates[modal, np.arange(len(member))]
        return ObservedScan(
            n=n,
            p=p,
            llr=llr,
            rho_in=rho_in,
            direction_arr=np.zeros(len(member), dtype=int),
            total_n=N,
            total_p=int(totals.max()) if K else 0,
            class_rates=rates.T,
        )

    def kernel(self, bound, direction):
        return MultinomialKernel(bound["N"], bound["totals"])


BERNOULLI = register_family(BernoulliFamily())
POISSON = register_family(PoissonFamily())
MULTINOMIAL = register_family(MultinomialFamily())


def _accuracy_measure(name: str, true_label: int) -> MeasureDef:
    """A measure keeping the rows whose true label is ``true_label``;
    the outcome is the model's own (binary) prediction."""
    return MeasureDef(
        name,
        rows=lambda coords, outcomes, y: np.asarray(y) == true_label,
        families=("bernoulli",),
        needs_y_true=True,
    )


register_measure(MeasureDef("statistical_parity"))
register_measure(_accuracy_measure("equal_opportunity", 1))
register_measure(_accuracy_measure("predictive_equality", 0))


def select_non_overlapping(findings, policy: str = "per-center") -> list:
    """Reduce significant findings to a disjoint set of regions.

    Parameters
    ----------
    findings : AuditResult, RegionColumns or sequence of Finding
        An audit's result (or its :attr:`AuditResult.columns`), of
        which only the significant regions' findings are built; or any
        findings, typically ``result.findings``, of which only the
        significant ones are eligible.
    policy : {'per-center', 'greedy'}, default 'per-center'
        ``'per-center'`` (the paper's rule) keeps, per scan centre in
        sequence, that centre's strongest region unless it overlaps an
        already-kept one.  ``'greedy'`` orders all significant regions
        by statistic and keeps best-first, which always retains the
        single strongest region overall.  Equal statistics keep region
        order under either policy.

    Returns
    -------
    list of Finding
        Pairwise non-intersecting significant findings.
    """
    if policy not in ("per-center", "greedy"):
        raise ValueError(f"unknown policy {policy!r}")
    # Significant findings, strongest first (ties in region order).
    if isinstance(findings, AuditResult):
        sig = findings.significant_findings
    elif isinstance(findings, RegionColumns):
        sig = findings.findings(findings.significant_order().tolist())
    else:
        sig = sorted(
            (f for f in findings if f.significant),
            key=lambda f: f.llr,
            reverse=True,
        )
    ordered = sig
    if policy == "per-center":
        best_per_center: dict[int, Finding] = {}
        for f in sig:
            best_per_center.setdefault(f.center_id, f)
        ordered = [best_per_center[c] for c in sorted(best_per_center)]
    kept: list[Finding] = []
    for f in ordered:
        if all(not f.rect.intersects(k.rect) for k in kept):
            kept.append(f)
    return kept


@dataclass(frozen=True)
class PowerEstimate:
    """Detection power of the audit at one effect size.

    Attributes
    ----------
    gap : float
        Inside-vs-outside rate gap of the injected bias.
    power : float
        Fraction of trials in which the audit rejected fairness.
    std_error : float
        Binomial standard error of ``power``.
    n_trials : int
    """

    gap: float
    power: float
    std_error: float
    n_trials: int


class PowerAnalysis:
    """Plan an audit: how strong a bias can this design detect?

    Fixes the audit design (locations, candidate regions, Monte Carlo
    budget, significance level) and estimates, by simulation, the
    probability of detecting a localized rate gap of a given size.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
        The design's observation locations.
    regions : RegionSet
        The candidate regions the audit will scan.
    n_worlds : int, default 99
        Null worlds per audit.
    alpha : float, default 0.05
        Significance level.
    seed : int, optional
        Master seed; per-trial seeds are derived from it.
    workers : int, optional
        Monte Carlo worker threads for every trial audit (see
        :meth:`repro.engine.MonteCarloEngine.null_distribution_multi`).

    Raises
    ------
    ValueError
        Naming ``n_worlds``, ``alpha``, ``seed`` or ``workers`` as
        :class:`repro.spec.AuditSpec` refuses them, ``coords`` when a
        location is malformed, or ``regions`` when they are empty or
        hold no point.
    """

    def __init__(
        self,
        coords: np.ndarray,
        regions: RegionSet,
        n_worlds: int = 99,
        alpha: float = 0.05,
        seed: int | None = None,
        workers: int | None = None,
    ):
        self.coords = check_coords(coords)
        self.regions = regions
        # Checked as each trial's audit checks them, before any runs.
        (
            self.n_worlds, self.alpha, _, _, self.seed, self.workers
        ) = _run_fields(
            "bernoulli", n_worlds, alpha, None, "max-stat", seed, workers
        )
        # One engine and one membership index serve every trial:
        # locations are fixed by the design, only labels vary.
        self.engine = MonteCarloEngine()
        self._member = self.engine._cold_build(regions, self.coords)
        _check_member(self._member, "regions")

    def power_at(
        self,
        bias: Rect,
        outside_rate: float,
        gap: float,
        n_trials: int = 20,
        _rng: np.random.Generator | None = None,
    ) -> PowerEstimate:
        """Estimate power against one injected bias strength.

        Parameters
        ----------
        bias : Rect
            Region whose rate is depressed by ``gap``.
        outside_rate : float
            Positive rate outside the bias region.
        gap : float
            ``outside_rate - inside_rate``; 0 measures the audit's
            size (false-alarm rate).
        n_trials : int, default 20
            Simulated datasets, ``>= 1``.

        Returns
        -------
        PowerEstimate

        Raises
        ------
        ValueError
            Naming ``n_trials`` when it is not an integer ``>= 1``,
            ``outside_rate`` when it is not a real number in [0, 1], or
            ``gap`` when it is not a real number.
        """
        n_trials = _int("n_trials", n_trials, 1)
        outside_rate = _real("outside_rate", outside_rate)
        if not 0.0 <= outside_rate <= 1.0:
            raise _err(
                "outside_rate", f"must lie in [0, 1], got {outside_rate}"
            )
        gap = _real("gap", gap)
        if np.isnan(gap):
            raise _err("gap", "expected a real number, got nan")
        rng = _rng or np.random.default_rng(self.seed)
        inside = bias.contains(self.coords)
        rates = np.where(
            inside, np.clip(outside_rate - gap, 0.0, 1.0), outside_rate
        )
        rejections = 0
        for _ in range(n_trials):
            labels = (rng.random(len(self.coords)) < rates).astype(
                np.int8
            )
            bound = BERNOULLI.bind(self.coords, labels)
            # A two-sided, max-stat, fixed-budget audit of one design.
            result = _scan_group(
                self.engine,
                BERNOULLI.kernel(bound, 0),
                [self._member],
                [BERNOULLI.observed(bound, self._member, 0)],
                [self.alpha],
                0,
                ["max-stat"],
                self.n_worlds,
                int(rng.integers(0, 2**31 - 1)),
                self.workers,
                None,
            )[0]
            rejections += not result.is_fair
        power = rejections / n_trials
        return PowerEstimate(
            gap=float(gap),
            power=power,
            std_error=float(
                np.sqrt(max(power * (1 - power), 1e-12) / n_trials)
            ),
            n_trials=n_trials,
        )

    def power_curve(
        self,
        bias: Rect,
        outside_rate: float,
        gaps: Sequence[float],
        n_trials: int = 20,
    ) -> list:
        """Power at each gap in ``gaps`` (shared random stream).

        Parameters
        ----------
        bias, outside_rate, n_trials
            As in :meth:`power_at`.
        gaps : sequence of float

        Returns
        -------
        list of PowerEstimate

        Raises
        ------
        ValueError
            Naming ``n_trials``, ``outside_rate`` or ``gap`` as
            :meth:`power_at` does.
        """
        n_trials = _int("n_trials", n_trials, 1)
        rng = np.random.default_rng(self.seed)
        return [
            self.power_at(
                bias, outside_rate, gap, n_trials=n_trials, _rng=rng
            )
            for gap in gaps
        ]


@dataclass(frozen=True)
class GerrymanderScore:
    """How suspicious is a handed partitioning?

    Attributes
    ----------
    exposure : float
        The strongest per-cell evidence (max LLR) the partitioning
        exposes on the data.
    percentile : float
        Fraction of random same-complexity partitionings exposing
        *less* than the handed one.  Near 0 means almost any random
        choice of boundaries reveals more than the handed one — the
        hallmark of a gerrymander.
    suspicious : bool
        ``percentile <= threshold``.
    threshold : float
    n_random : int
    """

    exposure: float
    percentile: float
    suspicious: bool
    threshold: float
    n_random: int


def gerrymander_score(
    coords: np.ndarray,
    y_pred: np.ndarray,
    partitioning: GridPartitioning,
    n_random: int = 99,
    seed: int | None = None,
    threshold: float = 0.05,
) -> GerrymanderScore:
    """Flag partitionings drawn to hide spatial unfairness.

    A single partitioning can always be gerrymandered so each cell
    blends high- and low-rate areas and looks fair.  This score
    compares the evidence the handed partitioning exposes (its max
    per-cell LLR) against random partitionings of the same complexity
    (same number of boundary lines, random orientation split and
    positions).  A handed partitioning exposing less than nearly every
    random one is suspicious.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
    y_pred : ndarray of shape (n,)
        Binary outcomes.
    partitioning : GridPartitioning
        The partitioning under scrutiny.
    n_random : int, default 99
        Random comparison partitionings, ``>= 1``.
    seed : int, optional
    threshold : float, default 0.05
        Percentile in [0, 1] below which the verdict is
        ``suspicious``.

    Returns
    -------
    GerrymanderScore

    Raises
    ------
    ValueError
        Naming ``n_random`` or ``threshold`` when out of range,
        ``coords`` when a location is malformed, or ``outcomes`` when
        ``y_pred`` is not binary or not one value per location (the
        Bernoulli family's rule).
    """
    n_random = _int("n_random", n_random, 1)
    threshold = _real("threshold", threshold)
    if not 0.0 <= threshold <= 1.0:
        raise _err("threshold", f"must lie in [0, 1], got {threshold}")
    coords = check_coords(coords)
    y = BERNOULLI.bind(coords, y_pred)["labels"].astype(np.float64)
    N = len(coords)
    P = float(y.sum())
    bounds = Rect.bounding(coords)

    def exposure(part: GridPartitioning) -> float:
        n = part.counts(coords)
        p = part.counts(coords, weights=y)
        return float(bernoulli_llr(n, p, N, P).max())

    handed = exposure(partitioning)
    n_splits = (partitioning.nx - 1) + (partitioning.ny - 1)
    rng = np.random.default_rng(seed)
    exposures = np.empty(n_random)
    for i in range(n_random):
        kx = int(rng.integers(0, n_splits + 1))
        ky = n_splits - kx
        x_inner = np.sort(
            rng.uniform(bounds.min_x, bounds.max_x, size=kx)
        )
        y_inner = np.sort(
            rng.uniform(bounds.min_y, bounds.max_y, size=ky)
        )
        grid = GridPartitioning(
            x_edges=np.concatenate(
                ([bounds.min_x], x_inner, [bounds.max_x])
            ),
            y_edges=np.concatenate(
                ([bounds.min_y], y_inner, [bounds.max_y])
            ),
        )
        exposures[i] = exposure(grid)
    percentile = float((exposures < handed).mean())
    return GerrymanderScore(
        exposure=handed,
        percentile=percentile,
        suspicious=percentile <= threshold,
        threshold=threshold,
        n_random=n_random,
    )
