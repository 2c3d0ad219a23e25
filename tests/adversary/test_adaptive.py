"""The adaptive (traffic-observing) adversary extension."""

import dataclasses

import pytest

from repro import api
from repro.adversary.adaptive import AdaptiveAdversary, evaluate_adaptive_attack
from repro.core.schemes import NodeJointScheme
from repro.scenarios.spec import Axis
from repro.util.rng import RandomSource

#: Node ids are the indices ``range(POPULATION)``.
POPULATION = 2000


def run_reduced(scheme, observation_rates, trials, **fixed):
    """The registered ``adaptive-observation`` scenario on a smaller game."""
    spec = api.get_scenario("adaptive-observation")
    spec = dataclasses.replace(
        spec,
        axes=(
            Axis("scheme", (scheme,)),
            Axis("observation_rate", observation_rates),
        ),
        fixed={**spec.fixed, **fixed},
    )
    return api.run_scenario(spec, trials=trials)


class TestCorruption:
    def test_fresh_adversary_reports_nothing(self):
        adversary = AdaptiveAdversary(0.2, 0.5, budget=5, rng=RandomSource(1))
        assert adversary.last_observed == 0
        assert adversary.last_targeted == 0

    def test_zero_observation_equals_uniform_sybil(self):
        adversary = AdaptiveAdversary(0.2, 0.0, budget=50, rng=RandomSource(1))
        population = adversary.corrupt(POPULATION, holders=range(20))
        assert adversary.last_observed == 0
        assert adversary.last_targeted == 0
        assert population.malicious_count == 400  # 0.2 * 2000

    def test_full_observation_spends_budget_on_holders(self):
        adversary = AdaptiveAdversary(0.0, 1.0, budget=5, rng=RandomSource(2))
        holders = range(20)
        population = adversary.corrupt(POPULATION, holders=holders)
        assert adversary.last_observed == 20
        assert adversary.last_targeted == 5
        corrupted_holders = [h for h in holders if population.is_malicious(h)]
        assert len(corrupted_holders) == 5

    def test_budget_larger_than_holder_set(self):
        adversary = AdaptiveAdversary(0.0, 1.0, budget=100, rng=RandomSource(3))
        holders = range(10)
        population = adversary.corrupt(POPULATION, holders=holders)
        assert adversary.last_targeted == 10
        assert population.malicious_count == 10

    def test_partial_observation(self):
        adversary = AdaptiveAdversary(0.0, 0.5, budget=1000, rng=RandomSource(4))
        holders = range(200)
        adversary.corrupt(POPULATION, holders=holders)
        # ~half the holders observed (binomial around 100).
        assert 70 < adversary.last_observed < 130

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            AdaptiveAdversary(1.5, 0.5, 1, RandomSource(5))
        with pytest.raises(ValueError):
            AdaptiveAdversary(0.5, -0.1, 1, RandomSource(5))


class TestAttackEvaluation:
    def test_full_observation_big_budget_always_wins(self):
        scheme = NodeJointScheme(2, 3)
        outcome = evaluate_adaptive_attack(
            scheme,
            POPULATION,
            AdaptiveAdversary(0.0, 1.0, budget=6, rng=RandomSource(6)),
            RandomSource(7),
        )
        # All 6 holders corrupted: both attacks succeed.
        assert not outcome.release_resisted
        assert not outcome.drop_resisted
        assert outcome.targeted_corruptions == 6

    def test_blind_adversary_with_tiny_seed_loses(self):
        scheme = NodeJointScheme(3, 3)
        outcome = evaluate_adaptive_attack(
            scheme,
            POPULATION,
            AdaptiveAdversary(0.001, 0.0, budget=100, rng=RandomSource(8)),
            RandomSource(9),
        )
        assert outcome.release_resisted
        assert outcome.drop_resisted


class TestSweep:
    def test_observability_degrades_resilience(self):
        report = run_reduced(
            "disjoint", (0.0, 1.0), trials=150, population_size=POPULATION
        )
        blind, omniscient = report.results()
        assert blind["observation_rate"] == 0.0
        # Full observation with a budget near the grid size must hurt.
        assert (
            omniscient["drop_resilience"] <= blind["drop_resilience"]
        )
        assert (
            omniscient["release_resilience"] <= blind["release_resilience"]
        )

    def test_rows_contain_both_axes(self):
        report = run_reduced(
            "joint",
            (0.5,),
            trials=50,
            population_size=500,
            seed_rate=0.05,
            budget=2,
            replication=2,
            path_length=2,
        )
        (row,) = report.results()
        assert row["trials_run"] == 50
        assert {
            "observation_rate",
            "release_resilience",
            "drop_resilience",
        } <= set(row)
