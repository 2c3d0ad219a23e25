"""The transient-unavailability extension."""

import dataclasses

import pytest

from repro import api
from repro.core.analysis import eq1_release
from repro.core.schemes.keyshare import algorithm1
from repro.experiments.availability import (
    key_share_availability,
    multipath_availability,
)
from repro.experiments.engine import TrialEngine
from repro.scenarios.runners import get_runner
from repro.scenarios.spec import Axis


class TestMultipathAvailability:
    def test_full_uptime_matches_static_model(self):
        from repro.core.analysis import joint_resilience

        outcome = multipath_availability(0.3, 1.0, 3, 3, joint=True)
        pair = joint_resilience(0.3, 3, 3)
        assert outcome.release_resilience == pair.release
        assert outcome.drop_resilience == pytest.approx(pair.drop, abs=1e-15)

    def test_offline_holders_hit_only_drop(self):
        honest_world = multipath_availability(0.2, 1.0, 3, 4, joint=True)
        flaky_world = multipath_availability(0.2, 0.8, 3, 4, joint=True)
        assert flaky_world.drop_resilience < honest_world.drop_resilience
        assert flaky_world.release_resilience == honest_world.release_resilience
        assert flaky_world.release_resilience == eq1_release(0.2, 3, 4)

    def test_disjoint_suffers_more_than_joint(self):
        disjoint = multipath_availability(0.0, 0.8, 3, 5, joint=False)
        joint = multipath_availability(0.0, 0.8, 3, 5, joint=True)
        assert joint.drop_resilience > disjoint.drop_resilience

    def test_zero_uptime_always_drops(self):
        outcome = multipath_availability(0.0, 0.0, 3, 3, joint=True)
        assert outcome.drop_resilience == 0.0
        assert outcome.release_resilience == 1.0


class TestKeyShareAvailability:
    def test_full_uptime_matches_churn_free_plan(self):
        plan = algorithm1(5, 10, 2000, 0.001, 1.0, 0.2)  # negligible churn
        outcome = key_share_availability(plan, 1.0, malicious_rate=0.2)
        assert outcome.release_resilience == pytest.approx(
            plan.release_resilience, abs=0.03
        )

    def test_threshold_absorbs_moderate_flakiness(self):
        plan = algorithm1(5, 10, 2000, 3.0, 1.0, 0.15)
        steady = key_share_availability(plan, 1.0, malicious_rate=0.15)
        flaky = key_share_availability(plan, 0.9, malicious_rate=0.15)
        # 10% offline carriers sit well inside the (m, n) slack.
        assert flaky.worst > steady.worst - 0.05

    def test_extreme_flakiness_starves_columns(self):
        plan = algorithm1(5, 10, 2000, 3.0, 1.0, 0.15)
        broken = key_share_availability(plan, 0.3, malicious_rate=0.15)
        assert broken.drop_resilience < 0.2


class TestSweep:
    def test_sweep_shape_and_ordering(self):
        spec = dataclasses.replace(
            api.get_scenario("availability"),
            fixed={"population_size": 2000},
            axes=(
                Axis("uptime", (1.0, 0.8)),
                Axis("p", (0.0, 0.2)),
                Axis("scheme", ("disjoint", "joint", "share")),
            ),
        )
        results = api.run_scenario(spec, trials=500).results()
        assert len(results) == 2 * 2 * 3  # uptimes x p values x schemes
        assert all(result["trials_run"] == 0 for result in results)
        by_key = {
            (result["scheme"], result["uptime"], result["p"]): result["value"]
            for result in results
        }
        # Lower uptime can only hurt.
        for scheme in ("disjoint", "joint", "share"):
            for p in (0.0, 0.2):
                assert by_key[(scheme, 0.8, p)] <= by_key[(scheme, 1.0, p)]
        # The share scheme's (m, n) slack absorbs flakiness the multipath
        # schemes' fixed holders cannot.
        for p in (0.0, 0.2):
            assert by_key[("share", 0.8, p)] > 0.9
            assert by_key[("share", 0.8, p)] >= by_key[("disjoint", 0.8, p)]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            get_runner("availability")(
                {"scheme": "bogus", "uptime": 0.9, "p": 0.1}, 10, 2017, TrialEngine()
            )
