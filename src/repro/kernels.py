"""Numeric kernels for the Monte Carlo hot path.

The scan's cost concentrates in these array kernels, evaluated on the
observed data once and on every block of simulated worlds:

* :func:`bernoulli_llr` — Kulldorff's Bernoulli LLR of every region
  against the global rate; :func:`bernoulli_llr_batch` scores a block
  of worlds, each against its own global rate;
* :func:`poisson_llr` — the Poisson LLR against fixed expected
  counts; :func:`poisson_llr_batch` is its world-block form;
* :func:`multinomial_llr_term` — one class's additive term of the
  multinomial LLR; :func:`multinomial_llr` sums it over classes and
  masks degenerate regions;
* :func:`membership_counts_batch` — the sparse recount
  ``M @ worlds`` in float64 (:mod:`repro.index` feeds it its
  column-major matrices: the ring matrix of a nested scan).

The observed scan (:mod:`repro.core`) and the engine's null worlds
(:mod:`repro.engine`) call the same LLR functions over broadcastable
arrays, so an observed outcome vector scored as a one-world batch
gives the observed statistic bit for bit.

Each LLR term is ``x * log(max(rate, 1e-300))``: the clamp keeps an
empty side's ``0 * log 0`` at 0 instead of NaN.  Counts satisfy
``0 <= p <= n`` (and ``P - p <= N - n``), so an empty region or
outside already has rate 0 without a mask, and degenerate regions
score 0.  The terms are evaluated with numpy's vectorised ``log``
into reused buffers; no step divides by zero or overflows, so the
kernels run warning-free without ``errstate`` guards.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernoulli_llr",
    "bernoulli_llr_batch",
    "membership_counts_batch",
    "multinomial_llr",
    "multinomial_llr_term",
    "poisson_llr",
    "poisson_llr_batch",
]

#: Rates are clamped here before the log, so ``0 * log(0)`` is 0.
_TINY = 1e-300


def _xlogy(x, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x * log(max(y, 1e-300))`` into ``out``, which may be ``y``."""
    np.maximum(y, _TINY, out=out)
    np.log(out, out=out)
    return np.multiply(x, out, out=out)


def bernoulli_llr(
    n, p, total_n: float, total_p, direction: int = 0
) -> np.ndarray:
    """Bernoulli scan log-likelihood ratio of Kulldorff (1997).

    Compares the hypothesis that the positive rate inside a region
    (``rho_in = p/n``) differs from the rate outside against the global
    single-rate null, in log-likelihood units.

    Parameters
    ----------
    n, p : array_like
        Total and positive outcome counts inside each region (any
        shape; broadcast together), with ``0 <= p <= n``.
    total_n : float
        Global total ``N``.
    total_p : float or array_like
        Global positive total ``P``; an array (e.g. ``(1, W)``, one
        total per world) broadcasts against ``p``.
    direction : {0, 1, -1}, default 0
        0 scans two-sided; 1 keeps only regions whose inside rate is
        *higher* than outside (green); -1 only *lower* (red).  The
        non-conforming regions score 0.

    Returns
    -------
    ndarray of float64
        The statistic, elementwise; 0 where the region is empty, full,
        or points the wrong way.

    Notes
    -----
    With ``q_in = p/n`` and ``q_out = (P-p)/(N-n)``, the statistic is

    .. math::

        \\Lambda = \\ell(p, n, q_{in}) + \\ell(P-p, N-n, q_{out})
                   - \\ell(P, N, P/N)

    where :math:`\\ell(p, n, q) = p \\log q + (n-p) \\log (1-q)`.
    """
    n = np.asarray(n, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    P = np.asarray(total_p, dtype=np.float64)
    N = float(total_n)
    n_out = N - n
    shape = np.broadcast_shapes(n.shape, p.shape, P.shape)
    keep = None
    if direction:
        rho_in = p / np.maximum(n, 1.0)
        rho_out = (P - p) / np.maximum(n_out, 1.0)
        keep = rho_in > rho_out if direction > 0 else rho_in < rho_out
    llr = np.empty(shape)
    a = np.empty(shape)
    b = np.empty(shape)
    # Inside: p log(rho_in) + (n - p) log(1 - rho_in).
    rho = np.divide(p, np.maximum(n, 1.0), out=a)
    np.subtract(1.0, rho, out=b)
    _xlogy(p, rho, llr)
    llr += _xlogy(np.subtract(n, p, out=a), b, b)
    # Outside: the same of (P - p, N - n).
    p_out = np.subtract(P, p, out=np.empty(shape))
    rho = np.divide(p_out, np.maximum(n_out, 1.0), out=a)
    np.subtract(1.0, rho, out=b)
    llr += _xlogy(p_out, rho, a)
    llr += _xlogy(np.subtract(n_out, p_out, out=a), b, b)
    # Global: P log(rho) + (N - P) log(1 - rho), once per total.
    rho = P / N
    llr -= P * np.log(np.maximum(rho, _TINY))
    llr -= (N - P) * np.log(np.maximum(1.0 - rho, _TINY))
    np.maximum(llr, 0.0, out=llr)
    # Degenerate regions carry no spatial information.
    np.copyto(llr, 0.0, where=(n <= 0) | (n >= N))
    if keep is not None:
        llr *= keep
    return llr


def bernoulli_llr_batch(
    n: np.ndarray,
    world_p: np.ndarray,
    N: float,
    world_P: np.ndarray,
    direction: int = 0,
) -> np.ndarray:
    """Bernoulli scan LLR for a batch of simulated worlds.

    Each world has its own global positive total ``world_P[w]``; the
    statistic is :func:`bernoulli_llr` against that world's own rate,
    exactly as for the observed data.

    Parameters
    ----------
    n : ndarray of shape (R,)
        Per-region observation counts.
    world_p : ndarray of shape (R, W)
        Per-region positive counts of each simulated world.
    N : float
        Total observations.
    world_P : ndarray of shape (W,)
        Per-world global positive totals.
    direction : {0, 1, -1}, default 0
        Directional filter, as in :func:`bernoulli_llr`.

    Returns
    -------
    ndarray of float64, shape (R, W)
    """
    n = np.asarray(n, dtype=np.float64)[:, None]
    world_P = np.asarray(world_P, dtype=np.float64)[None, :]
    return bernoulli_llr(n, world_p, N, world_P, direction)


def poisson_llr(
    obs, exp, total_obs: float, direction: int = 0
) -> np.ndarray:
    """Poisson scan log-likelihood ratio (Kulldorff's second model).

    Tests whether observed counts inside a region exceed (or fall
    short of) their forecast share, against the calibrated null where
    events land proportionally to the forecast.

    Parameters
    ----------
    obs, exp : array_like
        Observed count and (scaled) expected count inside each region,
        broadcast together; ``0 <= obs <= total_obs``.  ``exp`` must be
        scaled so its grand total equals ``total_obs``.
    total_obs : float
        Total observed events ``O``.
    direction : {0, 1, -1}, default 0
        1 keeps only excess regions (obs > exp), -1 only deficit
        regions, 0 both.

    Returns
    -------
    ndarray of float64
        0 where the region's expectation is 0 or the whole total.
    """
    obs = np.asarray(obs, dtype=np.float64)
    exp = np.asarray(exp, dtype=np.float64)
    total = float(total_obs)
    exp_out = total - exp
    valid = (exp > 0) & (exp_out > 0)
    # Invalid regions score 0 below; a stand-in expectation of 1 keeps
    # their terms finite.
    exp_in = np.maximum(np.where(valid, exp, 1.0), _TINY)
    exp_out = np.maximum(np.where(valid, exp_out, 1.0), _TINY)
    shape = np.broadcast_shapes(obs.shape, exp.shape)
    llr = np.divide(obs, exp_in, out=np.empty(shape))
    _xlogy(obs, llr, llr)
    obs_out = np.subtract(total, obs, out=np.empty(shape))
    buf = np.divide(obs_out, exp_out, out=np.empty(shape))
    llr += _xlogy(obs_out, buf, buf)
    np.maximum(llr, 0.0, out=llr)
    np.copyto(llr, 0.0, where=~valid)
    if direction > 0:
        llr *= obs > exp
    elif direction < 0:
        llr *= obs < exp
    return llr


def poisson_llr_batch(
    world_obs: np.ndarray,
    exp_r: np.ndarray,
    total_obs: float,
    direction: int = 0,
) -> np.ndarray:
    """Poisson scan LLR for a batch of simulated worlds:
    :func:`poisson_llr` with the expectations shared across worlds.

    Parameters
    ----------
    world_obs : ndarray of shape (R, W)
        Per-region observed counts of each simulated world.
    exp_r : ndarray of shape (R,)
        Per-region (scaled) expected counts, shared across worlds.
    total_obs : float
        Total observed events.
    direction : {0, 1, -1}, default 0
        1 keeps only excess regions, -1 only deficits.

    Returns
    -------
    ndarray of float64, shape (R, W)
    """
    exp_r = np.asarray(exp_r, dtype=np.float64)[:, None]
    return poisson_llr(world_obs, exp_r, total_obs, direction=direction)


def multinomial_llr_term(n, c, C, N: float) -> np.ndarray:
    """One class's additive term of the multinomial scan LLR.

    The multinomial statistic is a sum over classes ``k`` of
    ``c log(rho) + (C - c) log(q) - C log(C / N)`` with the in/out
    rates ``rho = c / n`` and ``q = (C - c) / (N - n)`` clamped at
    ``1e-300``; :func:`multinomial_llr` accumulates this term across
    classes and applies the degeneracy mask afterwards.

    Parameters
    ----------
    n : array_like
        Region sizes — ``(R, 1)`` against a world batch, or any shape
        broadcastable with ``c``.
    c : array_like
        This class's count inside each region (``(R, W)`` on the
        engine path), ``0 <= c <= n``.
    C : array_like or float
        This class's global total — per world (``(1, W)``) or scalar.
    N : float
        Total observations.

    Returns
    -------
    ndarray of float64, broadcast shape of the inputs
    """
    n = np.asarray(n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    N = float(N)
    shape = np.broadcast_shapes(n.shape, c.shape, C.shape)
    term = np.divide(c, np.maximum(n, 1.0), out=np.empty(shape))
    _xlogy(c, term, term)
    c_out = np.subtract(C, c, out=np.empty(shape))
    buf = np.divide(c_out, np.maximum(N - n, 1.0), out=np.empty(shape))
    term += _xlogy(c_out, buf, buf)
    term -= C * np.log(np.maximum(C / N, _TINY))
    return term


def multinomial_llr(n, class_terms, N: float) -> np.ndarray:
    """The multinomial scan LLR: :func:`multinomial_llr_term` summed
    over classes, clamped at 0, and 0 for regions that are empty or
    hold every observation.

    Parameters
    ----------
    n : array_like
        Region sizes, as in :func:`multinomial_llr_term`.
    class_terms : iterable of (c, C)
        One ``(c_k, C_k)`` pair per class, in class order.  A generator
        works, so a caller can recount one class at a time.
    N : float
        Total observations.

    Returns
    -------
    ndarray of float64, broadcast shape of ``n`` and the counts
    """
    n = np.asarray(n, dtype=np.float64)
    terms = (multinomial_llr_term(n, c, C, N) for c, C in class_terms)
    llr = next(terms, np.zeros(n.shape))
    for term in terms:
        llr += term
    np.maximum(llr, 0.0, out=llr)
    np.copyto(llr, 0.0, where=(n <= 0) | (n >= N))
    return llr


def membership_counts_batch(matrix, worlds: np.ndarray) -> np.ndarray:
    """Per-region sums of a world batch through a membership matrix.

    Computes ``matrix @ worlds`` in float64 throughout, so integer
    world counts stay exact up to ``2**53``.  The engine's kernels draw
    their worlds straight into C-contiguous float64, which this
    function uses as is; any other batch is converted once.  Each
    region's sum runs over its entries in point order, so a
    column-major matrix (one column per point, rows ascending, as
    :mod:`repro.index` stores it) gives the same bytes as the same
    matrix row-major with sorted rows.

    Parameters
    ----------
    matrix : scipy.sparse.csc_matrix
        Region-by-point membership (or ring) matrix, float64 data, one
        column per point.
    worlds : ndarray of shape (n_points, n_worlds) or (n_points,)
        One column per simulated world, or a single vector.

    Returns
    -------
    ndarray of float64, shape (n_regions, n_worlds) or (n_regions,)
    """
    worlds = np.ascontiguousarray(worlds, dtype=np.float64)
    return np.asarray(matrix @ worlds, dtype=np.float64)
