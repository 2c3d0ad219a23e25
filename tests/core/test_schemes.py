"""Scheme objects: analytics, structure sampling, Monte-Carlo agreement."""

import numpy as np
import pytest
from scipy import stats

from repro.adversary.population import SybilPopulation
from repro.core.analysis import disjoint_resilience, joint_resilience
from repro.core.paths import HolderGrid
from repro.core.schemes import (
    CentralizedScheme,
    NodeDisjointScheme,
    NodeJointScheme,
    algorithm1,
    plan_share_scheme,
)
from repro.core.schemes.base import MultipathScheme
from repro.core.schemes.keyshare import (
    _binomial_tail,
    _drop_tails,
    _release_tails,
    cumulative_success_rates,
)
from repro.util.rng import RandomSource

POPULATION = [f"node-{i}" for i in range(2000)]


def monte_carlo(scheme, p, trials=3000, seed=101):
    root = RandomSource(seed, "scheme-mc")
    release_hits = drop_hits = 0
    for index in range(trials):
        rng = root.fork(f"t{index}")
        sybil = SybilPopulation(p, rng.fork("sybil"))
        sybil.mark_population(POPULATION)
        structure = scheme.sample_structure(POPULATION, rng.fork("structure"))
        outcome = scheme.evaluate_attacks(structure, sybil)
        release_hits += outcome.release_resisted
        drop_hits += outcome.drop_resisted
    return release_hits / trials, drop_hits / trials


class TestCentralizedScheme:
    def test_analytics(self):
        pair = CentralizedScheme().resilience(0.3)
        assert pair.release == pytest.approx(0.7)
        assert CentralizedScheme().node_cost == 1


class TestDisjointScheme:
    def test_analytics_delegate(self):
        scheme = NodeDisjointScheme(3, 4)
        assert scheme.resilience(0.2) == disjoint_resilience(0.2, 3, 4)

    def test_monte_carlo_matches_equations(self):
        scheme = NodeDisjointScheme(3, 3)
        release, drop = monte_carlo(scheme, 0.25)
        pair = disjoint_resilience(0.25, 3, 3)
        assert release == pytest.approx(pair.release, abs=0.03)
        assert drop == pytest.approx(pair.drop, abs=0.03)

    def test_structure(self):
        scheme = NodeDisjointScheme(2, 5)
        grid = scheme.sample_structure(POPULATION, RandomSource(2))
        assert isinstance(grid, HolderGrid)
        assert grid.replication == 2
        assert grid.path_length == 5
        assert scheme.node_cost == 10


class TestJointScheme:
    def test_monte_carlo_matches_equations(self):
        scheme = NodeJointScheme(3, 3)
        release, drop = monte_carlo(scheme, 0.3)
        pair = joint_resilience(0.3, 3, 3)
        assert release == pytest.approx(pair.release, abs=0.03)
        assert drop == pytest.approx(pair.drop, abs=0.03)

    def test_joint_drop_beats_disjoint_empirically(self):
        p = 0.3
        _, disjoint_drop = monte_carlo(NodeDisjointScheme(3, 3), p, trials=2000)
        _, joint_drop = monte_carlo(NodeJointScheme(3, 3), p, trials=2000)
        assert joint_drop > disjoint_drop


class TestMultipathScheme:
    """Both grid schemes are one ``MultipathScheme``; only the drop rule
    (``joint``) and the closed forms differ."""

    CLASSES = [NodeDisjointScheme, NodeJointScheme]

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 5), (4, 7)])
    def test_node_cost_is_the_grid_size(self, k, l):
        for cls in self.CLASSES:
            assert cls(k, l).node_cost == k * l

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("k,l", [(0, 3), (3, 0), (-1, 2)])
    def test_non_positive_sizes_rejected(self, cls, k, l):
        with pytest.raises(ValueError):
            cls(k, l)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_non_integer_sizes_rejected(self, cls):
        with pytest.raises(TypeError):
            cls(2.0, 3)
        with pytest.raises(TypeError):
            cls(2, True)

    def test_the_drop_rule_is_the_only_difference(self):
        assert issubclass(NodeDisjointScheme, MultipathScheme)
        assert issubclass(NodeJointScheme, MultipathScheme)
        assert NodeDisjointScheme.joint is False and NodeJointScheme.joint is True
        assert NodeDisjointScheme.evaluate_attacks is NodeJointScheme.evaluate_attacks
        assert NodeDisjointScheme.sample_structure is NodeJointScheme.sample_structure

    @pytest.mark.parametrize("cls", CLASSES)
    def test_repr_names_the_grid(self, cls):
        assert repr(cls(3, 4)) == f"{cls.__name__}(k=3, l=4)"

    @pytest.mark.parametrize("cls", CLASSES)
    def test_structure_is_seeded_and_node_disjoint(self, cls):
        scheme = cls(3, 4)
        grid = scheme.sample_structure(POPULATION, RandomSource(8))
        assert grid == scheme.sample_structure(POPULATION, RandomSource(8))
        assert grid != scheme.sample_structure(POPULATION, RandomSource(9))
        holders = grid.all_holders()
        assert len(set(holders)) == scheme.node_cost
        assert set(holders) <= set(POPULATION)

    def test_population_too_small_for_the_grid_rejected(self):
        with pytest.raises(ValueError, match="distinct holders"):
            NodeJointScheme(3, 4).sample_structure(POPULATION[:11], RandomSource(1))


class TestAlgorithm1:
    def test_plan_shape(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.2)
        assert plan.shares_per_column == 100
        assert len(plan.thresholds) == 9
        assert len(plan.release_success_by_column) == 10
        assert len(plan.drop_success_by_column) == 10
        assert all(1 <= m <= 100 for m in plan.thresholds)
        assert 0.0 <= plan.release_resilience <= 1.0
        assert 0.0 <= plan.drop_resilience <= 1.0

    def test_cumulative_rates_monotone(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.3)
        release = plan.release_success_by_column
        drop = plan.drop_success_by_column
        assert list(release) == sorted(release)
        assert list(drop) == sorted(drop)

    def test_dead_share_estimate(self):
        import math

        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.2)
        expected_p_dead = 1 - math.exp(-0.3)
        assert plan.death_probability == pytest.approx(expected_p_dead)
        assert plan.dead_share_estimate == math.floor(expected_p_dead * 100)

    def test_more_nodes_more_resilience(self):
        small = algorithm1(5, 10, 100, 3.0, 1.0, 0.25)
        large = algorithm1(5, 10, 10000, 3.0, 1.0, 0.25)
        assert large.worst_resilience >= small.worst_resilience

    def test_zero_rate_fully_resilient(self):
        plan = algorithm1(5, 10, 1000, 3.0, 1.0, 0.0)
        assert plan.release_resilience == pytest.approx(1.0)
        assert plan.drop_resilience == pytest.approx(1.0)

    def test_path_length_minimum(self):
        with pytest.raises(ValueError):
            algorithm1(5, 1, 1000, 3.0, 1.0, 0.1)

    def test_budget_must_cover_columns(self):
        with pytest.raises(ValueError):
            algorithm1(5, 10, 5, 3.0, 1.0, 0.1)

    def test_cumulative_success_rates_reproduce_plan(self):
        plan = algorithm1(4, 8, 2000, 2.0, 1.0, 0.25)
        release, drop = cumulative_success_rates(plan)
        assert release == pytest.approx(plan.release_success_by_column)
        assert drop == pytest.approx(plan.drop_success_by_column)

    def test_cumulative_success_rates_at_other_rate(self):
        plan = algorithm1(4, 8, 2000, 2.0, 1.0, 0.25)
        release_low, _ = cumulative_success_rates(plan, 0.05)
        release_high, _ = cumulative_success_rates(plan, 0.45)
        assert release_low[-1] < release_high[-1]


class TestBinomialTails:
    """Algorithm 1's tails come from ``scipy.special.betainc`` so that
    importing the schemes does not import ``scipy.stats``; the bar is not
    "close" but the same float, bit for bit, as ``scipy.stats.binom.sf``
    over every (n, p, threshold) the planner can ask for — n is
    ``node_budget // path_length``, at most 5000 at the largest budget."""

    SHARES = [*range(1, 65), 100, 250, 500, 1000, 2500, 5000]
    RATES = [0.0, *(round(0.01 * step, 2) for step in range(1, 51)), 1.0]

    def test_bitwise_equal_to_binom_sf_over_the_planner_domain(self):
        for n in self.SHARES:
            k = np.arange(n)
            for p in self.RATES:
                ours = _binomial_tail(k, n, p)
                reference = stats.binom.sf(k, n, p)
                assert ours.tobytes() == reference.tobytes(), (n, p)

    def test_release_and_drop_tails_are_those_tails(self):
        for n, d, p in [(100, 25, 0.2), (7, 0, 0.5), (500, 499, 0.33), (12, 12, 0.1)]:
            m = np.arange(1, n + 1)
            release = stats.binom.sf(m - 1, n, p)
            assert _release_tails(n, p).tobytes() == release.tobytes()
            alive = n - d
            drop = np.where(
                m > alive, 1.0, stats.binom.sf(np.maximum(alive - m, 0), alive, p)
            )
            assert _drop_tails(n, d, p).tobytes() == drop.tobytes()


class TestPlanShareScheme:
    def test_reasonable_plan(self):
        plan = plan_share_scheme(0.2, 10000, emerging_time=3.0, mean_lifetime=1.0)
        assert plan.worst_resilience > 0.99
        assert plan.path_length <= 32

    def test_fig8_shape_claims(self):
        """Paper §IV-B.3: the cost sweep's headline numbers."""
        def worst(p, budget):
            return plan_share_scheme(p, budget, 3.0, 1.0).worst_resilience

        assert worst(0.14, 100) > 0.9
        assert worst(0.26, 1000) > 0.95
        assert worst(0.30, 10000) > 0.95
        # 5000 and 10000 nearly coincide below p = 0.3.
        assert abs(worst(0.25, 5000) - worst(0.25, 10000)) < 0.02
