"""Unit tests for the statistic kernels in :mod:`repro.stats`.

Hand-computed reference values only — no Monte Carlo.
"""

import math

import numpy as np
import pytest

from repro import kernels
from repro.stats import (
    benjamini_hochberg,
    bernoulli_llr,
    poisson_llr,
)


def _xlogy(x, y):
    """The LLR kernels' ``x * log(max(y, 1e-300))`` term, into a fresh
    buffer."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return kernels._xlogy(x, y, np.empty(shape))


def hand_bernoulli_llr(n, p, N, P):
    """Straight transcription of the paper's statistic, scalar math."""
    rho_in = p / n
    rho_out = (P - p) / (N - n)
    rho = P / N

    def ell(pp, nn, q):
        out = 0.0
        if pp > 0:
            out += pp * math.log(q)
        if nn - pp > 0:
            out += (nn - pp) * math.log(1.0 - q)
        return out

    return ell(p, n, rho_in) + ell(P - p, N - n, rho_out) - ell(P, N, rho)


class TestBernoulliLLR:
    def test_hand_computed_value(self):
        got = bernoulli_llr(10, 8, 100.0, 50.0)
        want = hand_bernoulli_llr(10, 8, 100.0, 50.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert want > 0

    def test_region_at_global_rate_scores_zero(self):
        # rho_in == rho_out == rho: the alternative adds nothing
        # (up to float cancellation noise).
        assert bernoulli_llr(10, 5, 100.0, 50.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_all_positive_region(self):
        got = bernoulli_llr(4, 4, 100.0, 50.0)
        want = hand_bernoulli_llr(4, 4, 100.0, 50.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_all_negative_region(self):
        got = bernoulli_llr(4, 0, 100.0, 50.0)
        want = hand_bernoulli_llr(4, 0, 100.0, 50.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_regions_score_zero(self):
        # Empty region and the full dataset carry no spatial signal.
        assert bernoulli_llr(0, 0, 100.0, 50.0) == 0.0
        assert bernoulli_llr(100, 50, 100.0, 50.0) == 0.0

    def test_vectorized_matches_scalar(self):
        n = np.array([10.0, 20.0, 0.0, 100.0])
        p = np.array([8.0, 5.0, 0.0, 50.0])
        got = bernoulli_llr(n, p, 100.0, 50.0)
        want = [
            hand_bernoulli_llr(10, 8, 100.0, 50.0),
            hand_bernoulli_llr(20, 5, 100.0, 50.0),
            0.0,
            0.0,
        ]
        assert got == pytest.approx(want, rel=1e-12)

    def test_direction_filter(self):
        # n=10, p=8 inside is *above* the outside rate (green).
        two_sided = bernoulli_llr(10, 8, 100.0, 50.0)
        assert bernoulli_llr(10, 8, 100.0, 50.0, direction=1) == two_sided
        assert bernoulli_llr(10, 8, 100.0, 50.0, direction=-1) == 0.0
        # n=10, p=1 inside is *below* (red).
        two_sided = bernoulli_llr(10, 1, 100.0, 50.0)
        assert bernoulli_llr(10, 1, 100.0, 50.0, direction=-1) == two_sided
        assert bernoulli_llr(10, 1, 100.0, 50.0, direction=1) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        n = rng.integers(0, 101, size=200).astype(float)
        p = np.minimum(n, rng.integers(0, 101, size=200)).astype(float)
        assert (bernoulli_llr(n, p, 100.0, 50.0) >= 0.0).all()


class TestPoissonLLR:
    def test_hand_computed_excess(self):
        # obs=10 where exp=5 out of O=100 total events.
        want = 10 * math.log(10 / 5) + 90 * math.log(90 / 95)
        assert poisson_llr(10.0, 5.0, 100.0) == pytest.approx(
            want, rel=1e-12
        )

    def test_hand_computed_deficit(self):
        want = 2 * math.log(2 / 5) + 98 * math.log(98 / 95)
        assert poisson_llr(2.0, 5.0, 100.0) == pytest.approx(
            want, rel=1e-12
        )

    def test_calibrated_region_scores_zero(self):
        assert poisson_llr(5.0, 5.0, 100.0) == 0.0

    def test_zero_observed(self):
        want = 100 * math.log(100 / 95)
        assert poisson_llr(0.0, 5.0, 100.0) == pytest.approx(
            want, rel=1e-12
        )

    def test_invalid_expectation_scores_zero(self):
        # exp == 0 or exp == O leaves no valid complement to test.
        assert poisson_llr(3.0, 0.0, 100.0) == 0.0
        assert poisson_llr(3.0, 100.0, 100.0) == 0.0

    def test_direction_filter(self):
        excess = poisson_llr(10.0, 5.0, 100.0)
        assert poisson_llr(10.0, 5.0, 100.0, direction=1) == excess
        assert poisson_llr(10.0, 5.0, 100.0, direction=-1) == 0.0
        deficit = poisson_llr(2.0, 5.0, 100.0)
        assert poisson_llr(2.0, 5.0, 100.0, direction=-1) == deficit
        assert poisson_llr(2.0, 5.0, 100.0, direction=1) == 0.0

    def test_vectorized_broadcast(self):
        obs = np.array([10.0, 2.0, 5.0])
        exp = np.array([5.0, 5.0, 5.0])
        got = poisson_llr(obs, exp, 100.0)
        assert got.shape == (3,)
        assert got[2] == 0.0
        assert (got >= 0.0).all()


class TestXlogy:
    """The clamped term keeps the ``0 * log 0 = 0`` convention."""

    def test_zero_times_log_zero_is_zero(self):
        assert _xlogy(0.0, 0.0) == 0.0

    def test_zero_x_any_y(self):
        assert _xlogy(0.0, 123.4) == 0.0

    def test_matches_plain_product(self):
        assert _xlogy(3.0, 2.0) == pytest.approx(3.0 * math.log(2.0))

    def test_vectorized_and_broadcast(self):
        x = np.array([0.0, 1.0, 2.0])
        got = _xlogy(x, 2.0)
        assert got == pytest.approx([0.0, math.log(2), 2 * math.log(2)])
        assert got.shape == (3,)


class TestBenjaminiHochberg:
    def test_bh_1995_worked_example(self):
        # The worked example from Benjamini & Hochberg (1995), m=15,
        # alpha=0.05: exactly the four smallest p-values are rejected.
        p = np.array(
            [0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298,
             0.0344, 0.0459, 0.3240, 0.4262, 0.5719, 0.6528, 0.7590,
             1.0000]
        )
        reject = benjamini_hochberg(p, 0.05)
        assert reject.sum() == 4
        assert reject[:4].all() and not reject[4:].any()

    def test_small_example_all_rejected(self):
        # Every sorted p is below its threshold i/m * alpha.
        p = np.array([0.01, 0.04, 0.03, 0.005])
        assert benjamini_hochberg(p, 0.05).all()

    def test_none_rejected(self):
        p = np.array([0.5, 0.9, 0.7])
        assert not benjamini_hochberg(p, 0.05).any()

    def test_step_up_rescues_smaller_pvalues(self):
        # 0.04 > alpha*1/2 alone, but rank 2 of 2 gives threshold
        # 0.05 — the step-up keeps both.
        p = np.array([0.04, 0.049])
        assert benjamini_hochberg(p, 0.05).all()

    def test_empty_input(self):
        out = benjamini_hochberg(np.array([]), 0.05)
        assert out.shape == (0,)
        assert out.dtype == bool

    def test_rejection_monotone_in_pvalue(self):
        # If p_i is rejected, every p_j <= p_i must be rejected too.
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.random(30)
            reject = benjamini_hochberg(p, 0.1)
            if reject.any():
                cutoff = p[reject].max()
                assert reject[p <= cutoff].all()

    def test_rejection_monotone_in_alpha(self):
        # Raising alpha can only grow the rejection set.
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.random(25)
            lo = benjamini_hochberg(p, 0.02)
            hi = benjamini_hochberg(p, 0.2)
            assert (hi | ~lo).all()  # lo implies hi

    def test_preserves_input_order(self):
        p = np.array([0.9, 0.0001, 0.8])
        reject = benjamini_hochberg(p, 0.05)
        assert list(reject) == [False, True, False]
