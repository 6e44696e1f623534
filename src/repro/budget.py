"""World-budget policies: fixed vs adaptive (sequential) Monte Carlo.

Every audit's cost is the number of simulated null worlds, yet most
verdicts are decided long before a fixed budget is spent: either the
observed scan maximum keeps landing inside the null bulk (the audit is
clearly fair) or it keeps beating every simulated world (clearly
unfair).  This module packages the sequential-testing machinery that
lets the engine stop simulating as soon as the verdict is settled,
while ``budget="fixed"`` keeps today's bit-identical behaviour:

* :class:`BudgetPolicy` — the frozen, validated, JSON-round-trippable
  policy value object carried by :class:`repro.spec.AuditSpec`;
* :func:`round_sizes` — the deterministic progressive-refinement
  schedule (e.g. 128 worlds, then 2x until the budget is spent);
* :func:`sequential_decision` — the per-round stop/continue rule: a
  Besag–Clifford exceedance count plus a Clopper–Pearson confidence
  interval on the p-value vs ``alpha``;
* :func:`clopper_pearson` — the exact binomial CI itself (also used to
  report ``p_value_ci`` on every :class:`repro.core.AuditResult`).

Statistical validity
--------------------
The reported p-value is always ``(1 + k) / (1 + m)`` where ``k`` is
the number of the ``m`` simulated maxima that reach the observed one —
exactly the fixed-budget estimator, just evaluated at the (data
dependent) stopping time.  The two stopping triggers cannot inflate
the false-rejection rate:

* the Besag–Clifford trigger stops once ``k`` reaches
  ``min_exceedances`` — early stops therefore *floor* the reported
  p-value at ``(min_exceedances + 1) / (m + 1)``, so stopping early
  can only make the audit more conservative at the small-p end
  (Besag & Clifford 1991, "Sequential Monte Carlo p-values");
* the Clopper–Pearson trigger stops only once the exact
  ``confidence``-level CI for the exceedance probability lies entirely
  on one side of ``alpha`` — the verdict (the only thing ``alpha``
  thresholds) already agrees with the full-budget run up to the CI's
  error rate.

``tests/test_adaptive.py`` checks both properties empirically:
adaptive p-values stay uniform under the null (calibration) and
verdicts agree with fixed-budget runs across all three families.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

__all__ = [
    "BudgetPolicy",
    "StopDecision",
    "BUDGET_KINDS",
    "round_sizes",
    "sequential_decision",
    "clopper_pearson",
]

#: Budget policies an :class:`AuditSpec` can request.
BUDGET_KINDS = ("fixed", "adaptive")

#: Default first-round world count of an adaptive policy.
DEFAULT_INITIAL = 128

#: Default progressive-refinement multiplier between rounds.
DEFAULT_GROWTH = 2.0

#: Default Besag–Clifford exceedance count that settles "clearly
#: inside the null": once this many simulated maxima reach the
#: observed one, the p-value cannot drop below
#: ``(min_exceedances + 1) / (m + 1)`` however many worlds follow.
DEFAULT_MIN_EXCEEDANCES = 10

#: Default confidence level of the Clopper–Pearson stopping interval.
DEFAULT_CONFIDENCE = 0.99


def _err(field_name: str, message: str) -> ValueError:
    return ValueError(f"{field_name}: {message}")


def _int(field_name: str, value, low: int | None = None) -> int:
    """``value`` as an ``int``, or a ValueError naming ``field_name``.

    Python and numpy integers and integral floats (``2.0``) pass;
    bools, fractional floats, strings and anything else are refused
    rather than truncated or parsed, and so is a value below ``low``.
    """
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        if low is not None and value < low:
            raise _err(field_name, f"must be >= {low}, got {int(value)}")
        return int(value)
    raise _err(field_name, f"expected an integer, got {value!r}")


def _workers(workers) -> int | None:
    """A worker count: ``None`` (the default) or an int >= 1, else a
    ValueError naming ``workers``."""
    return None if workers is None else _int("workers", workers, 1)


def _real(field_name: str, value) -> float:
    """``value`` as a ``float``, or a ValueError naming ``field_name``.

    Python and numpy real numbers pass; bools, strings, ``None`` and
    anything else are refused rather than parsed.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise _err(field_name, f"expected a real number, got {value!r}")


@dataclass(frozen=True)
class BudgetPolicy:
    """How an audit spends (or saves) its Monte Carlo world budget.

    Two kinds:

    * ``'fixed'`` — simulate exactly ``n_worlds`` worlds, today's
      bit-identical behaviour.  A fixed policy carries no parameters.
    * ``'adaptive'`` — simulate in progressive rounds (``initial``
      worlds, then ``growth``x refinements) and stop a null
      distribution early once :func:`sequential_decision` settles the
      verdict: either ``min_exceedances`` simulated maxima already
      reach the observed one (Besag–Clifford), or the exact
      ``confidence``-level Clopper–Pearson interval for the p-value no
      longer straddles the audit's ``alpha``.

    Instances are frozen, hashable (service fusion groups key on
    them) and round-trip losslessly through :meth:`to_dict` /
    :meth:`from_dict`.

    Examples
    --------
    >>> BudgetPolicy.parse("adaptive").kind
    'adaptive'
    >>> BudgetPolicy.parse({"kind": "adaptive", "initial": 64}).initial
    64
    >>> BudgetPolicy.parse("fixed").to_dict()
    'fixed'
    """

    kind: str = "fixed"
    initial: int = DEFAULT_INITIAL
    growth: float = DEFAULT_GROWTH
    min_exceedances: int = DEFAULT_MIN_EXCEEDANCES
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.kind not in BUDGET_KINDS:
            raise _err(
                "budget.kind",
                f"unknown budget policy {self.kind!r}; expected one "
                f"of {BUDGET_KINDS}",
            )
        if self.kind == "fixed":
            if (
                self.initial != DEFAULT_INITIAL
                or self.growth != DEFAULT_GROWTH
                or self.min_exceedances != DEFAULT_MIN_EXCEEDANCES
                or self.confidence != DEFAULT_CONFIDENCE
            ):
                raise _err(
                    "budget",
                    "a 'fixed' policy takes no adaptive parameters "
                    "(initial/growth/min_exceedances/confidence)",
                )
            return
        initial = _int("budget.initial", self.initial, 1)
        object.__setattr__(self, "initial", initial)
        growth = _real("budget.growth", self.growth)
        if not growth > 1.0:
            raise _err(
                "budget.growth",
                f"refinement multiplier must be > 1, got {self.growth}",
            )
        object.__setattr__(self, "growth", growth)
        min_exc = _int("budget.min_exceedances", self.min_exceedances, 1)
        object.__setattr__(self, "min_exceedances", min_exc)
        confidence = _real("budget.confidence", self.confidence)
        if not 0.5 < confidence < 1.0:
            raise _err(
                "budget.confidence",
                f"must lie in (0.5, 1), got {self.confidence}",
            )
        object.__setattr__(self, "confidence", confidence)

    @property
    def is_adaptive(self) -> bool:
        """Whether the policy may stop a null distribution early."""
        return self.kind == "adaptive"

    @classmethod
    def parse(cls, value) -> "BudgetPolicy":
        """Coerce any accepted budget form into a policy.

        Parameters
        ----------
        value : BudgetPolicy, str, dict or None
            ``None`` means ``'fixed'``; a string names a kind with
            default parameters; a dict is :meth:`from_dict` input.

        Returns
        -------
        BudgetPolicy

        Raises
        ------
        ValueError
            On an unknown policy name or malformed dict, naming the
            ``budget`` field.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if value not in BUDGET_KINDS:
                raise _err(
                    "budget",
                    f"unknown budget policy {value!r}; expected one "
                    f"of {BUDGET_KINDS}",
                )
            return cls(kind=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise _err(
            "budget",
            "expected a BudgetPolicy, a policy name "
            f"{BUDGET_KINDS} or its dict form, got "
            f"{type(value).__name__}",
        )

    def to_dict(self):
        """JSON form: the bare string ``'fixed'``, or a dict carrying
        every adaptive parameter (lossless round-trip via
        :meth:`parse` / :meth:`from_dict`).

        Returns
        -------
        str or dict
        """
        if self.kind == "fixed":
            return "fixed"
        return {
            "kind": self.kind,
            "initial": self.initial,
            "growth": self.growth,
            "min_exceedances": self.min_exceedances,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetPolicy":
        """Inverse of :meth:`to_dict`'s dict form; rejects unknown
        keys.

        Parameters
        ----------
        data : dict

        Returns
        -------
        BudgetPolicy
        """
        if not isinstance(data, dict):
            raise _err(
                "budget",
                f"expected a dict, got {type(data).__name__}",
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise _err(
                "budget",
                f"unknown field(s) {sorted(unknown)}; known: "
                f"{sorted(known)}",
            )
        if "kind" not in data:
            raise _err(
                "budget.kind",
                f"missing — expected one of {BUDGET_KINDS}",
            )
        return cls(**data)

    def describe(self) -> str:
        """One-word (fixed) or compact parametrised summary."""
        if self.kind == "fixed":
            return "fixed"
        return (
            f"adaptive(initial={self.initial}, growth={self.growth:g}, "
            f"min_exceedances={self.min_exceedances}, "
            f"confidence={self.confidence:g})"
        )


def round_sizes(policy: BudgetPolicy, n_worlds: int) -> list:
    """The deterministic progressive world schedule of a run.

    A pure function of ``(policy, n_worlds)`` — never of the data, the
    worker count or the stopping decisions — so the per-round random
    streams (and with them every simulated world) are identical
    however early any design stops.

    Parameters
    ----------
    policy : BudgetPolicy
    n_worlds : int
        Total world budget.

    Returns
    -------
    list of int
        Worlds to simulate per round; sums to ``n_worlds``.  A fixed
        policy is the single round ``[n_worlds]``.

    Examples
    --------
    >>> round_sizes(BudgetPolicy.parse("adaptive"), 1024)
    [128, 128, 256, 512]
    >>> round_sizes(BudgetPolicy.parse("fixed"), 99)
    [99]
    """
    n_worlds = int(n_worlds)
    if n_worlds < 1:
        raise ValueError(f"n_worlds must be >= 1, got {n_worlds}")
    if not policy.is_adaptive:
        return [n_worlds]
    sizes = []
    total = 0
    target = min(policy.initial, n_worlds)
    while total < n_worlds:
        sizes.append(target - total)
        total = target
        target = min(
            n_worlds,
            max(total + 1, int(math.ceil(total * policy.growth))),
        )
    return sizes


@dataclass(frozen=True)
class StopDecision:
    """One round's verdict on whether to keep simulating.

    Attributes
    ----------
    stop : bool
        Whether the null distribution is settled.
    reason : str
        ``'exceedances'`` (Besag–Clifford count reached),
        ``'ci-above'`` (the p-value CI lies entirely above ``alpha`` —
        clearly fair), ``'ci-below'`` (entirely below — clearly
        unfair), or ``'continue'``.
    p_hat : float
        The Monte Carlo p-value estimate ``(1 + k) / (1 + m)``.
    ci : tuple of float
        The Clopper–Pearson interval ``(lo, hi)`` for the exceedance
        probability at the policy's confidence.
    """

    stop: bool
    reason: str
    p_hat: float
    ci: tuple


def clopper_pearson(
    k: int, m: int, confidence: float = 0.95
) -> tuple:
    """Exact (Clopper–Pearson) binomial confidence interval.

    For ``k`` exceedances among ``m`` simulated worlds, the interval
    covers the true exceedance probability — the quantity the Monte
    Carlo p-value estimates — with at least ``confidence``
    probability.

    Parameters
    ----------
    k : int
        Successes (here: null maxima reaching the observed maximum).
    m : int
        Trials (simulated worlds).
    confidence : float, default 0.95

    Returns
    -------
    (float, float)
        ``(lo, hi)`` with ``lo = 0`` when ``k == 0`` and ``hi = 1``
        when ``k == m``.

    Notes
    -----
    The bounds are Beta quantiles, computed with
    :func:`scipy.special.betaincinv` (``betaincinv(a, b, q)`` equals
    ``scipy.stats.beta.ppf(q, a, b)`` bit for bit).  Importing
    :mod:`scipy.stats` would cost every audit process tens of MB.
    """
    from scipy.special import betaincinv

    k, m = int(k), int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in [0, {m}], got {k}")
    tail = (1.0 - float(confidence)) / 2.0
    lo = 0.0 if k == 0 else float(betaincinv(k, m - k + 1, tail))
    hi = 1.0 if k == m else float(betaincinv(k + 1, m - k, 1.0 - tail))
    return (lo, hi)


def sequential_decision(
    k: int, m: int, alpha: float, policy: BudgetPolicy
) -> StopDecision:
    """Besag–Clifford + Clopper–Pearson stop/continue rule.

    Called after every progressive round with the cumulative
    exceedance count ``k`` over ``m`` simulated worlds.  Stops when:

    * ``k >= policy.min_exceedances`` — the Besag–Clifford trigger:
      the p-value is already floored at ``(k + 1) / (m + 1)``, so its
      final digits cannot change the verdict's side cheaply; or
    * the exact ``policy.confidence`` CI for the exceedance
      probability lies entirely above or entirely below ``alpha`` —
      the verdict is settled at that confidence.

    The decision is a pure function of ``(k, m, alpha, policy)``;
    ``tests/test_adaptive.py`` pins golden values so a refactor cannot
    silently change the rule.

    Parameters
    ----------
    k : int
        Simulated maxima at or above the observed maximum so far.
    m : int
        Worlds simulated so far.
    alpha : float
        The audit's significance level.
    policy : BudgetPolicy
        Must be adaptive.

    Returns
    -------
    StopDecision
    """
    if not policy.is_adaptive:
        raise ValueError(
            "budget: sequential_decision needs an adaptive policy"
        )
    k, m = int(k), int(m)
    alpha = float(alpha)
    p_hat = (1.0 + k) / (1.0 + m)
    ci = clopper_pearson(k, m, policy.confidence)
    if k >= policy.min_exceedances:
        return StopDecision(
            stop=True, reason="exceedances", p_hat=p_hat, ci=ci
        )
    if ci[0] > alpha:
        return StopDecision(
            stop=True, reason="ci-above", p_hat=p_hat, ci=ci
        )
    if ci[1] < alpha:
        return StopDecision(
            stop=True, reason="ci-below", p_hat=p_hat, ci=ci
        )
    return StopDecision(
        stop=False, reason="continue", p_hat=p_hat, ci=ci
    )
