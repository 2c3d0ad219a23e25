"""The epoch churn model: limiting cases pin it to the closed forms."""

import dataclasses

import numpy as np
import pytest

from repro.core.analysis import disjoint_resilience, joint_resilience
from repro.core.schemes.keyshare import algorithm1
from repro.experiments.churn_model import (
    simulate_centralized,
    simulate_key_share,
    simulate_multipath,
)

TRIALS = 4000


def rng(seed=11):
    return np.random.default_rng(seed)


class TestCentralized:
    def test_no_churn_matches_closed_form(self):
        outcome = simulate_centralized(0.3, 0.0, TRIALS, rng())
        assert outcome.release_resilience == pytest.approx(0.7, abs=0.03)
        assert outcome.drop_resilience == pytest.approx(0.7, abs=0.03)

    def test_churn_only_hits_drop(self):
        import math

        outcome = simulate_centralized(0.2, 2.0, TRIALS, rng())
        assert outcome.release_resilience == pytest.approx(0.8, abs=0.03)
        expected_drop = 0.8 * math.exp(-2.0)
        assert outcome.drop_resilience == pytest.approx(expected_drop, abs=0.03)

    def test_alpha_monotone(self):
        mild = simulate_centralized(0.1, 1.0, TRIALS, rng(1)).drop_resilience
        harsh = simulate_centralized(0.1, 5.0, TRIALS, rng(2)).drop_resilience
        assert harsh < mild


class TestMultipath:
    def test_no_churn_matches_disjoint_equations(self):
        outcome = simulate_multipath(
            0.25, 0.0, 3, 3, TRIALS, rng(3), joint=False
        )
        pair = disjoint_resilience(0.25, 3, 3)
        assert outcome.release_resilience == pytest.approx(pair.release, abs=0.03)
        assert outcome.drop_resilience == pytest.approx(pair.drop, abs=0.03)

    def test_no_churn_matches_joint_equations(self):
        outcome = simulate_multipath(
            0.3, 0.0, 3, 3, TRIALS, rng(4), joint=True
        )
        pair = joint_resilience(0.3, 3, 3)
        assert outcome.release_resilience == pytest.approx(pair.release, abs=0.03)
        assert outcome.drop_resilience == pytest.approx(pair.drop, abs=0.03)

    def test_churn_degrades_release_resilience(self):
        """Exposure growth (§III-D): repairs hand keys to more nodes."""
        calm = simulate_multipath(0.2, 0.0, 4, 6, TRIALS, rng(5), joint=True)
        churny = simulate_multipath(0.2, 5.0, 4, 6, TRIALS, rng(6), joint=True)
        assert churny.release_resilience < calm.release_resilience - 0.05

    def test_churn_degrades_drop_resilience(self):
        """Whole-column simultaneous death loses the key outright."""
        calm = simulate_multipath(0.0, 0.0, 2, 6, TRIALS, rng(7), joint=True)
        churny = simulate_multipath(0.0, 5.0, 2, 6, TRIALS, rng(8), joint=True)
        assert churny.drop_resilience < calm.drop_resilience - 0.1

    def test_zero_rate_no_churn_is_perfect(self):
        outcome = simulate_multipath(0.0, 0.0, 3, 3, 500, rng(9), joint=True)
        assert outcome.release_resilience == 1.0
        assert outcome.drop_resilience == 1.0


class TestKeyShare:
    def test_matches_algorithm1_analytics(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.25)
        outcome = simulate_key_share(plan, 3.0, TRIALS, rng(10))
        assert outcome.release_resilience == pytest.approx(
            plan.release_resilience, abs=0.03
        )
        assert outcome.drop_resilience == pytest.approx(
            plan.drop_resilience, abs=0.03
        )

    def test_override_rate(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.2)
        weak = simulate_key_share(plan, 3.0, TRIALS, rng(11), malicious_rate=0.05)
        strong = simulate_key_share(plan, 3.0, TRIALS, rng(12), malicious_rate=0.45)
        assert weak.worst > strong.worst

    def test_balanced_thresholds_never_lose_to_a_majority(self):
        """Algorithm 1's balanced m against a naive majority m, same plan,
        same draws: the thresholds earn their place."""
        for p in (0.1, 0.2, 0.3):
            plan = algorithm1(5, 10, 2000, 3.0, 1.0, p)
            majority = dataclasses.replace(
                plan,
                thresholds=(plan.shares_per_column // 2 + 1,) * len(plan.thresholds),
            )
            balanced = simulate_key_share(plan, 3.0, TRIALS, rng(15))
            naive = simulate_key_share(majority, 3.0, TRIALS, rng(15))
            assert balanced.worst >= naive.worst - 0.05

    def test_alpha_insensitivity_below_p03(self):
        """The share scheme's headline property (Fig. 7): churn barely
        moves it for p < 0.3."""
        plan1 = algorithm1(5, 20, 10000, 1.0, 1.0, 0.25)
        plan5 = algorithm1(5, 20, 10000, 5.0, 1.0, 0.25)
        calm = simulate_key_share(plan1, 1.0, TRIALS, rng(13))
        harsh = simulate_key_share(plan5, 5.0, TRIALS, rng(14))
        assert abs(calm.worst - harsh.worst) < 0.05
        assert harsh.worst > 0.9
