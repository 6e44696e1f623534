"""Unit tests for :mod:`repro.kernels`.

Every kernel returns float64 and matches an independent re-derivation
of its formula written out in the test (not a call back into the
module), so a refactor cannot drift numerically without failing here.
The LLR kernels are also held to ``rtol=1e-12`` of the scipy ``xlogy``
expressions they replaced.
"""

import numpy as np
import pytest
from scipy.special import xlogy

from repro import kernels
from repro.geometry import GridPartitioning, Rect, partition_region_set
from repro.index import RegionMembership
from repro.stats import poisson_llr


@pytest.fixture(scope="module")
def workload():
    """A small Bernoulli-shaped workload: 12 regions x 7 worlds."""
    rng = np.random.default_rng(3)
    coords = rng.random((200, 2))
    regions = partition_region_set(
        GridPartitioning.regular(Rect(0, 0, 1, 1), 4, 3)
    )
    member = RegionMembership(regions, coords)
    worlds = (rng.random((200, 7)) < 0.45).astype(np.float32)
    return {
        "member": member,
        "worlds": worlds,
        "n": member.counts.astype(np.float64),
        "world_p": member.positive_counts_batch(worlds),
        "world_P": worlds.sum(axis=0, dtype=np.float64),
        "N": 200.0,
    }


def _xlog(x, y):
    """``x * log(max(y, 1e-300))``, the kernels' LLR term."""
    return x * np.log(np.maximum(y, 1e-300))


def bernoulli_reference(n, p, N, P):
    """The Bernoulli LLR in the kernels' ``np.log`` form and order."""
    n_out = N - n
    p_out = P - p
    rho_in = p / np.maximum(n, 1.0)
    rho_out = p_out / np.maximum(n_out, 1.0)
    rho = P / N
    llr = (
        _xlog(p, rho_in)
        + _xlog(n - p, 1.0 - rho_in)
        + _xlog(p_out, rho_out)
        + _xlog(n_out - p_out, 1.0 - rho_out)
        - _xlog(P, rho)
        - _xlog(N - P, 1.0 - rho)
    )
    llr = np.maximum(llr, 0.0)
    return np.where((n <= 0) | (n >= N), 0.0, llr), rho_in, rho_out


def poisson_reference(obs, exp, total):
    """The Poisson LLR in the kernels' ``np.log`` form and order."""
    exp_out = total - exp
    valid = (exp > 0) & (exp_out > 0)
    exp_in = np.maximum(np.where(valid, exp, 1.0), 1e-300)
    exp_out = np.maximum(np.where(valid, exp_out, 1.0), 1e-300)
    obs_out = total - obs
    llr = _xlog(obs, obs / exp_in) + _xlog(obs_out, obs_out / exp_out)
    return np.where(valid, np.maximum(llr, 0.0), 0.0)


def multinomial_term_reference(n, c, C, N):
    """One multinomial class term in the kernels' ``np.log`` form."""
    return (
        _xlog(c, c / np.maximum(n, 1.0))
        + _xlog(C - c, (C - c) / np.maximum(N - n, 1.0))
        - _xlog(C, C / N)
    )


def bernoulli_xlogy(n, p, N, P):
    """The Bernoulli LLR as scipy ``xlogy`` computed it before the
    kernels moved to ``np.log``."""
    n_out = N - n
    p_out = P - p
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_in = np.where(n > 0, p / np.maximum(n, 1.0), 0.0)
        rho_out = np.where(n_out > 0, p_out / np.maximum(n_out, 1.0), 0.0)
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
    return np.where((n <= 0) | (n >= N), 0.0, llr)


def poisson_xlogy(obs, exp, total):
    """The Poisson LLR as scipy ``xlogy`` computed it before."""
    obs_out = total - obs
    exp_out = total - exp
    valid = (exp > 0) & (exp_out > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = xlogy(obs, np.where(valid, obs / np.maximum(exp, 1e-300), 1.0))
        llr = llr + xlogy(
            obs_out,
            np.where(valid, obs_out / np.maximum(exp_out, 1e-300), 1.0),
        )
    return np.where(valid, np.maximum(llr, 0.0), 0.0)


def multinomial_term_xlogy(n, c, C, N):
    """One multinomial class term as scipy ``xlogy`` computed it."""
    n_out = N - n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(n > 0, c / np.maximum(n, 1.0), 0.0)
        q = np.where(n_out > 0, (C - c) / np.maximum(n_out, 1.0), 0.0)
    return (
        xlogy(c, np.maximum(rho, 1e-300))
        + xlogy(C - c, np.maximum(q, 1e-300))
        - xlogy(C, np.maximum(C / N, 1e-300))
    )


@pytest.fixture(scope="module")
def exp_r(workload):
    """Per-region expectations, scaled to the workload's total, with an
    empty (invalid) region."""
    rng = np.random.default_rng(4)
    exp = rng.random(len(workload["n"])) + 0.5
    exp[3] = 0.0
    return exp * (workload["N"] / exp.sum())


class TestDispatchedKernels:
    """Each dispatcher vs an in-test re-derivation of its formula."""

    def test_bernoulli_matches_direct_expression(self, workload):
        n = workload["n"][:, None]
        p = workload["world_p"]
        P = workload["world_P"][None, :]
        N = workload["N"]
        expected, rho_in, rho_out = bernoulli_reference(n, p, N, P)

        got = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], 0
        )
        assert got.dtype == np.float64
        assert got.shape == p.shape
        assert np.array_equal(got, expected)
        # Directional filters zero exactly the cells on the wrong side.
        up = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], 1
        )
        down = kernels.bernoulli_llr_batch(
            workload["n"], p, N, workload["world_P"], -1
        )
        assert np.array_equal(
            up, np.where(rho_in > rho_out, expected, 0.0)
        )
        assert np.array_equal(
            down, np.where(rho_in < rho_out, expected, 0.0)
        )

    def test_poisson_matches_stats_reference(self, workload, exp_r):
        world_obs = workload["world_p"]
        exp = exp_r[:, None]
        expected = poisson_reference(world_obs, exp, workload["N"])
        for direction, keep in (
            (0, True), (1, world_obs > exp), (-1, world_obs < exp),
        ):
            got = kernels.poisson_llr_batch(
                world_obs, exp_r, workload["N"], direction=direction
            )
            assert got.dtype == np.float64
            assert np.array_equal(got, np.where(keep, expected, 0.0))
            # The stats module re-exports the one implementation.
            assert np.array_equal(
                got,
                poisson_llr(
                    world_obs, exp, workload["N"], direction=direction
                ),
            )

    def test_multinomial_matches_direct_expression(self, workload):
        n = workload["n"][:, None]
        c = workload["world_p"]
        C = workload["world_P"][None, :]
        N = workload["N"]
        got = kernels.multinomial_llr_term(n, c, C, N)
        assert got.dtype == np.float64
        assert np.array_equal(got, multinomial_term_reference(n, c, C, N))


    def test_membership_counts_exact_integers(self, workload):
        member = workload["member"]
        worlds = workload["worlds"]
        got = kernels.membership_counts_batch(member._matrix, worlds)
        # 0/1 worlds -> every output cell is an exact small integer in
        # float64, so dense brute force must agree bit for bit.
        brute = member._matrix.toarray() @ worlds.astype(np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got, brute)
        assert np.array_equal(got, np.round(got))


class TestAgainstScipyXlogy:
    """The ``np.log`` kernels stay within ``rtol=1e-12`` of the scipy
    ``xlogy`` expressions they replaced."""

    RTOL = 1e-12

    def test_bernoulli(self, workload):
        n = workload["n"][:, None]
        P = workload["world_P"][None, :]
        got = kernels.bernoulli_llr_batch(
            workload["n"], workload["world_p"], workload["N"],
            workload["world_P"],
        )
        old = bernoulli_xlogy(n, workload["world_p"], workload["N"], P)
        np.testing.assert_allclose(got, old, rtol=self.RTOL, atol=0)

    def test_poisson(self, workload, exp_r):
        got = kernels.poisson_llr_batch(
            workload["world_p"], exp_r, workload["N"]
        )
        old = poisson_xlogy(workload["world_p"], exp_r[:, None], workload["N"])
        np.testing.assert_allclose(got, old, rtol=self.RTOL, atol=0)

    def test_multinomial_term(self, workload):
        n = workload["n"][:, None]
        C = workload["world_P"][None, :]
        args = (n, workload["world_p"], C, workload["N"])
        np.testing.assert_allclose(
            kernels.multinomial_llr_term(*args),
            multinomial_term_xlogy(*args),
            rtol=self.RTOL,
            atol=0,
        )
