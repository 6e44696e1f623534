"""Numeric kernels for the Monte Carlo hot path.

The scan's cost concentrates in four array kernels, evaluated on every
chunk of simulated worlds:

* :func:`bernoulli_llr_batch` — Kulldorff's Bernoulli LLR of every
  region against every world's own global rate;
* :func:`poisson_llr_batch` — the Poisson LLR against fixed expected
  counts;
* :func:`multinomial_llr_term` — one class's additive term of the
  multinomial LLR; :func:`multinomial_llr` sums it over classes and
  masks degenerate regions, for the observed scan and the world
  batches alike;
* :func:`membership_counts_batch` — the sparse recount
  ``M @ worlds`` in float64 (:mod:`repro.index` feeds it its
  column-major matrices: the ring matrix of a nested scan).

The three LLR kernels clamp rates at ``1e-300`` and use the
``xlogy(0, y) == 0`` convention, so degenerate regions score 0 rather
than NaN.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .stats import poisson_llr

__all__ = [
    "bernoulli_llr_batch",
    "membership_counts_batch",
    "multinomial_llr",
    "multinomial_llr_term",
    "poisson_llr_batch",
]


def bernoulli_llr_batch(
    n: np.ndarray,
    world_p: np.ndarray,
    N: float,
    world_P: np.ndarray,
    direction: int = 0,
) -> np.ndarray:
    """Bernoulli scan LLR for a batch of simulated worlds.

    Each world has its own global positive total ``world_P[w]``; the
    statistic is computed against that world's own rate, exactly as
    for the observed data (Kulldorff's Bernoulli statistic).

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
        Directional filter, as in :func:`repro.stats.bernoulli_llr`.

    Returns
    -------
    ndarray of float64, shape (R, W)
    """
    n = np.ascontiguousarray(n, dtype=np.float64)[:, None]
    p = np.ascontiguousarray(world_p, dtype=np.float64)
    P = np.ascontiguousarray(world_P, dtype=np.float64)[None, :]
    N = float(N)
    n_out = N - n
    p_out = P - p
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_in = np.where(n > 0, p / np.maximum(n, 1.0), 0.0)
        rho_out = np.where(
            n_out > 0, p_out / np.maximum(n_out, 1.0), 0.0
        )
        rho = P / N
    llr = (
        xlogy(p, np.maximum(rho_in, 1e-300))
        + xlogy(n - p, np.maximum(1.0 - rho_in, 1e-300))
        + xlogy(p_out, np.maximum(rho_out, 1e-300))
        + xlogy(n_out - p_out, np.maximum(1.0 - rho_out, 1e-300))
        - xlogy(P, np.maximum(rho, 1e-300))
        - xlogy(N - P, np.maximum(1.0 - rho, 1e-300))
    )
    llr = np.maximum(llr, 0.0)
    llr = np.where((n <= 0) | (n >= N), 0.0, llr)
    if direction > 0:
        llr = np.where(rho_in > rho_out, llr, 0.0)
    elif direction < 0:
        llr = np.where(rho_in < rho_out, llr, 0.0)
    return llr


def poisson_llr_batch(
    world_obs: np.ndarray,
    exp_r: np.ndarray,
    total_obs: float,
    direction: int = 0,
) -> np.ndarray:
    """Poisson scan LLR for a batch of simulated worlds.

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
    world_obs = np.ascontiguousarray(world_obs, dtype=np.float64)
    exp_r = np.ascontiguousarray(exp_r, dtype=np.float64)
    return poisson_llr(
        world_obs, exp_r[:, None], total_obs, direction=direction
    )


def multinomial_llr_term(n, c, C, N: float) -> np.ndarray:
    """One class's additive term of the multinomial scan LLR.

    The multinomial statistic is a sum over classes ``k`` of
    ``xlogy(c, rho) + xlogy(C - c, q) - xlogy(C, C / N)`` with the
    in/out rates clamped at ``1e-300``; :func:`multinomial_llr`
    accumulates this term across classes and applies the degeneracy
    mask afterwards.

    Parameters
    ----------
    n : array_like
        Region sizes — ``(R, 1)`` against a world batch, or any shape
        broadcastable with ``c``.
    c : array_like
        This class's count inside each region (``(R, W)`` on the
        engine path).
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
    n_out = N - n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(n > 0, c / np.maximum(n, 1.0), 0.0)
        q = np.where(
            n_out > 0, (C - c) / np.maximum(n_out, 1.0), 0.0
        )
    return (
        xlogy(c, np.maximum(rho, 1e-300))
        + xlogy(C - c, np.maximum(q, 1e-300))
        - xlogy(C, np.maximum(C / N, 1e-300))
    )


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
    llr = np.zeros(n.shape)
    for c, C in class_terms:
        llr = llr + multinomial_llr_term(n, c, C, N)
    llr = np.maximum(llr, 0.0)
    return np.where((n <= 0) | (n >= N), 0.0, llr)


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
