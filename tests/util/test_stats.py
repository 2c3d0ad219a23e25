"""Tests for the statistics helpers (cross-checked against scipy)."""

import pytest
from scipy import stats as scipy_stats

from repro.util.stats import sample_proportion_ci, wilson_proportion_ci


class TestProportionCi:
    def test_interval_contains_estimate(self):
        estimate, low, high = sample_proportion_ci(70, 100)
        assert low <= estimate <= high
        assert estimate == pytest.approx(0.7)

    def test_clamped_to_unit_interval(self):
        _, low, _ = sample_proportion_ci(0, 10)
        _, _, high = sample_proportion_ci(10, 10)
        assert low == 0.0
        assert high == 1.0

    def test_width_shrinks_with_trials(self):
        _, low_small, high_small = sample_proportion_ci(50, 100)
        _, low_large, high_large = sample_proportion_ci(5000, 10000)
        assert (high_large - low_large) < (high_small - low_small)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            sample_proportion_ci(11, 10)
        with pytest.raises(ValueError):
            sample_proportion_ci(0, 0)
        with pytest.raises(ValueError):
            sample_proportion_ci(-1, 10)

    # -- edge cases the trial engine's early stopping leans on -------------

    def test_zero_successes(self):
        estimate, low, high = sample_proportion_ci(0, 50)
        assert estimate == 0.0
        assert low == 0.0
        assert 0.0 <= high < 0.01  # variance floor keeps a sliver of width

    def test_all_successes(self):
        estimate, low, high = sample_proportion_ci(50, 50)
        assert estimate == 1.0
        assert high == 1.0
        assert 0.99 < low <= 1.0

    def test_single_trial(self):
        for successes in (0, 1):
            estimate, low, high = sample_proportion_ci(successes, 1)
            assert estimate == float(successes)
            assert 0.0 <= low <= estimate <= high <= 1.0

    def test_half_width_symmetric_away_from_bounds(self):
        estimate, low, high = sample_proportion_ci(50, 100)
        assert (estimate - low) == pytest.approx(high - estimate)


class TestWilsonCi:
    def test_interval_contains_estimate(self):
        estimate, low, high = wilson_proportion_ci(70, 100)
        assert low <= estimate <= high
        assert estimate == pytest.approx(0.7)

    def test_nondegenerate_at_extremes(self):
        # Unlike the normal approximation, Wilson keeps honest width at
        # 0 or n successes — the reason the engine can use it to stop on
        # near-certain events.
        _, low_zero, high_zero = wilson_proportion_ci(0, 50)
        _, low_full, high_full = wilson_proportion_ci(50, 50)
        assert low_zero == 0.0 and high_zero > 0.05
        assert high_full == 1.0 and low_full < 0.95

    @pytest.mark.parametrize("z_score", [1.96, 3.29])
    def test_closed_ends_are_exact(self, z_score):
        # The float form misses 1 at n of n successes (0.9999999999999999)
        # and 0 at none (~1e-17) for thousands of n below 20,000; an
        # interval meant to hold an exact 1 or 0 must hold it.
        for trials in range(1, 20_001):
            assert wilson_proportion_ci(trials, trials, z_score)[2] == 1.0
            assert wilson_proportion_ci(0, trials, z_score)[1] == 0.0

    def test_single_trial(self):
        for successes in (0, 1):
            estimate, low, high = wilson_proportion_ci(successes, 1)
            assert estimate == float(successes)
            assert 0.0 <= low <= estimate <= high <= 1.0
            assert high - low > 0.5  # one trial tells you very little

    def test_matches_scipy(self):
        reference = scipy_stats.binomtest(37, 150).proportion_ci(
            confidence_level=0.95, method="wilson"
        )
        _, low, high = wilson_proportion_ci(37, 150)
        assert low == pytest.approx(reference.low, abs=1e-3)
        assert high == pytest.approx(reference.high, abs=1e-3)

    def test_converges_to_normal_for_large_n(self):
        # For large n away from the extremes the two intervals agree to
        # well under a tenth of their width (Wilson is narrower near 0.5
        # and slightly wider toward the extremes).
        _, n_low, n_high = sample_proportion_ci(9000, 10000)
        _, w_low, w_high = wilson_proportion_ci(9000, 10000)
        assert (w_high - w_low) == pytest.approx(n_high - n_low, rel=0.001)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            wilson_proportion_ci(11, 10)
        with pytest.raises(ValueError):
            wilson_proportion_ci(0, 0)
