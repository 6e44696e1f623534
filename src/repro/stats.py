"""Statistics: scan likelihood ratios and exact binomial tests.

The scan likelihood ratios ``bernoulli_llr`` and ``poisson_llr``
live in :mod:`repro.kernels`, where the observed scan and the Monte
Carlo worlds share them; they stay importable from here.
The binomial tests and the Benjamini–Hochberg procedure serve the
per-region baselines and the ``fdr-bh`` correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Re-exported for callers that import the scan LLRs from here.
from .kernels import bernoulli_llr, poisson_llr  # noqa: F401

__all__ = [
    "binom_test",
    "binom_sf_vector",
    "binom_cdf_vector",
    "BinomTestResult",
    "benjamini_hochberg",
]


def _check_probability(p: float) -> float:
    """Validate a null probability: finite and within ``[0, 1]``.

    scipy's ``binom`` silently returns ``nan`` (or an impossible 0.0)
    for out-of-range ``p``; the audit would then propagate garbage
    p-values, so reject such inputs loudly instead.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:  # also catches nan
        raise ValueError(f"p must be a probability in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class BinomTestResult:
    """Outcome of an exact binomial test.

    Attributes
    ----------
    k, n : int
        Successes and trials.
    p : float
        Null success probability.
    alternative : str
        ``'two-sided'``, ``'less'`` or ``'greater'``.
    p_value : float
        Exact p-value.
    """

    k: int
    n: int
    p: float
    alternative: str
    p_value: float


def binom_test(
    k: int, n: int, p: float, alternative: str = "two-sided"
) -> BinomTestResult:
    """Exact binomial test of ``k`` successes in ``n`` trials.

    Parameters
    ----------
    k : int
        Observed successes.
    n : int
        Trials.
    p : float
        Null success probability.
    alternative : {'two-sided', 'less', 'greater'}, default 'two-sided'
        'less' computes ``P(X <= k)``; 'greater' ``P(X >= k)``;
        'two-sided' sums all outcomes no more probable than ``k``.

    Returns
    -------
    BinomTestResult

    Raises
    ------
    ValueError
        When ``k`` is outside ``[0, n]`` or ``p`` outside ``[0, 1]``.

    Examples
    --------
    >>> binom_test(0, 5, 0.5, alternative="less").p_value
    0.03125
    """
    from scipy.stats import binom as _binom

    k = int(k)
    n = int(n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    p = _check_probability(p)
    if alternative == "less":
        pv = float(_binom.cdf(k, n, p))
    elif alternative == "greater":
        pv = float(_binom.sf(k - 1, n, p))
    elif alternative == "two-sided":
        pmf = _binom.pmf(np.arange(n + 1), n, p)
        pv = float(pmf[pmf <= pmf[k] * (1.0 + 1e-7)].sum())
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return BinomTestResult(
        k=k, n=n, p=float(p), alternative=alternative,
        p_value=min(pv, 1.0),
    )


def binom_sf_vector(k: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """Vector of upper-tail probabilities ``P(X >= k)`` (helper for the
    naive per-region baseline).

    Handles the edges exactly: ``k <= 0`` gives 1, ``k > n`` gives 0,
    and degenerate nulls ``p`` of 0 or 1 give the point-mass answer.
    Out-of-range ``p`` raises :class:`ValueError` instead of silently
    returning ``nan``.
    """
    from scipy.stats import binom as _binom

    p = _check_probability(p)
    return np.asarray(_binom.sf(np.asarray(k) - 1, np.asarray(n), p))


def binom_cdf_vector(k: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """Vector of lower-tail probabilities ``P(X <= k)``.

    Same edge handling as :func:`binom_sf_vector`.
    """
    from scipy.stats import binom as _binom

    p = _check_probability(p)
    return np.asarray(_binom.cdf(np.asarray(k), np.asarray(n), p))


def benjamini_hochberg(p_values: np.ndarray, alpha: float) -> np.ndarray:
    """Benjamini–Hochberg step-up procedure.

    Parameters
    ----------
    p_values : ndarray of shape (m,)
    alpha : float
        Target false discovery rate.

    Returns
    -------
    ndarray of bool, shape (m,)
        Rejection mask in the original order.
    """
    p_values = np.asarray(p_values, dtype=np.float64)
    m = len(p_values)
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(p_values)
    ranked = p_values[order]
    thresholds = alpha * (np.arange(1, m + 1) / m)
    below = ranked <= thresholds
    reject = np.zeros(m, dtype=bool)
    if below.any():
        cutoff = np.nonzero(below)[0].max()
        reject[order[: cutoff + 1]] = True
    return reject
