"""The epoch churn model: limiting cases pin it to the closed forms."""

import dataclasses
import math

import pytest

from repro.core.analysis import disjoint_resilience, joint_resilience
from repro.core.schemes.keyshare import algorithm1
from repro.experiments.churn_model import (
    centralized_churn,
    key_share_churn,
    multipath_churn,
)


class TestCentralized:
    def test_no_churn_matches_closed_form(self):
        outcome = centralized_churn(0.3, 0.0)
        assert outcome.release_resilience == pytest.approx(0.7, abs=1e-15)
        assert outcome.drop_resilience == pytest.approx(0.7, abs=1e-15)

    def test_churn_only_hits_drop(self):
        outcome = centralized_churn(0.2, 2.0)
        assert outcome.release_resilience == pytest.approx(0.8, abs=1e-15)
        assert outcome.drop_resilience == pytest.approx(0.8 * math.exp(-2.0))

    def test_alpha_monotone(self):
        mild = centralized_churn(0.1, 1.0).drop_resilience
        harsh = centralized_churn(0.1, 5.0).drop_resilience
        assert harsh < mild


class TestMultipath:
    def test_no_churn_matches_disjoint_equations(self):
        outcome = multipath_churn(0.25, 0.0, 3, 3, joint=False)
        pair = disjoint_resilience(0.25, 3, 3)
        assert outcome.release_resilience == pytest.approx(pair.release, abs=1e-15)
        assert outcome.drop_resilience == pytest.approx(pair.drop, abs=1e-15)

    def test_no_churn_matches_joint_equations(self):
        outcome = multipath_churn(0.3, 0.0, 3, 3, joint=True)
        pair = joint_resilience(0.3, 3, 3)
        assert outcome.release_resilience == pytest.approx(pair.release, abs=1e-15)
        assert outcome.drop_resilience == pytest.approx(pair.drop, abs=1e-15)

    def test_churn_degrades_release_resilience(self):
        """Exposure growth (§III-D): repairs hand keys to more nodes."""
        calm = multipath_churn(0.2, 0.0, 4, 6, joint=True)
        churny = multipath_churn(0.2, 5.0, 4, 6, joint=True)
        assert churny.release_resilience < calm.release_resilience - 0.05

    def test_churn_degrades_drop_resilience(self):
        """Whole-column simultaneous death loses the key outright."""
        calm = multipath_churn(0.0, 0.0, 2, 6, joint=True)
        churny = multipath_churn(0.0, 5.0, 2, 6, joint=True)
        assert churny.drop_resilience < calm.drop_resilience - 0.1

    def test_zero_rate_no_churn_is_perfect(self):
        outcome = multipath_churn(0.0, 0.0, 3, 3, joint=True)
        assert outcome.release_resilience == 1.0
        assert outcome.drop_resilience == 1.0

    def test_churn_loss_is_the_same_for_both_schemes(self):
        """At p = 0 only churn drops a key, and it does not care how the
        columns forward."""
        for alpha in (1.0, 3.0):
            disjoint = multipath_churn(0.0, alpha, 3, 5, joint=False)
            joint = multipath_churn(0.0, alpha, 3, 5, joint=True)
            assert disjoint == joint
            q = 1.0 - math.exp(-alpha / 5)
            assert joint.drop_resilience == pytest.approx((1.0 - q**3) ** 15)


class TestKeyShare:
    def test_matches_algorithm1_analytics(self):
        """At the plan's own rate the form *is* Algorithm 1's lines 14-18."""
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.25)
        outcome = key_share_churn(plan)
        assert outcome.release_resilience == plan.release_resilience
        assert outcome.drop_resilience == plan.drop_resilience

    def test_override_rate(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.2)
        weak = key_share_churn(plan, malicious_rate=0.05)
        strong = key_share_churn(plan, malicious_rate=0.45)
        assert weak.worst > strong.worst

    def test_balanced_thresholds_never_lose_to_a_majority(self):
        """Algorithm 1's balanced m against a naive majority m, same plan:
        the thresholds earn their place.  At p = 0.1 and 0.2 the two tie
        (to 7e-12 at 0.2, where the balanced m is a hair behind); at 0.3
        the majority collapses."""
        for p in (0.1, 0.2, 0.3):
            plan = algorithm1(5, 10, 2000, 3.0, 1.0, p)
            majority = dataclasses.replace(
                plan,
                thresholds=(plan.shares_per_column // 2 + 1,) * len(plan.thresholds),
            )
            balanced, naive = key_share_churn(plan), key_share_churn(majority)
            assert balanced.worst >= naive.worst - 1e-9
        assert balanced.worst > naive.worst + 0.5

    def test_alpha_insensitivity_below_p03(self):
        """The share scheme's headline property (Fig. 7): churn barely
        moves it for p < 0.3."""
        calm = key_share_churn(algorithm1(5, 20, 10000, 1.0, 1.0, 0.25))
        harsh = key_share_churn(algorithm1(5, 20, 10000, 5.0, 1.0, 0.25))
        assert abs(calm.worst - harsh.worst) < 0.05
        assert harsh.worst > 0.9
