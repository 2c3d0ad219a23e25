"""Parameter planning (the Fig. 6 methodology)."""

import dataclasses
import itertools

import pytest

from repro.core import planner
from repro.core.analysis import joint_resilience
from repro.core.planner import plan_configuration


class TestCentralizedPlanning:
    def test_always_single_node(self):
        config = plan_configuration("centralized", 0.2, 10000)
        assert config.replication == 1
        assert config.path_length == 1
        assert config.cost == 1
        assert config.worst_resilience == pytest.approx(0.8)

    def test_meets_target_only_for_tiny_p(self):
        assert plan_configuration("centralized", 0.0, 10, target=0.999).meets_target
        assert not plan_configuration("centralized", 0.2, 10, target=0.999).meets_target


class TestTargetSatisfaction:
    def test_feasible_configuration_meets_target(self):
        config = plan_configuration("joint", 0.2, 10000, target=0.999)
        assert config.meets_target
        assert config.release_resilience >= 0.999
        assert config.drop_resilience >= 0.999

    def test_reported_resilience_matches_analysis(self):
        config = plan_configuration("joint", 0.25, 10000)
        pair = joint_resilience(0.25, config.replication, config.path_length)
        assert config.release_resilience == pytest.approx(pair.release)
        assert config.drop_resilience == pytest.approx(pair.drop)

    def test_cost_is_minimal_among_feasible(self):
        """Brute-force cross-check on a small search space."""
        p, budget, target = 0.2, 120, 0.99
        config = plan_configuration(
            "joint", p, budget, target=target,
            max_replication=16, max_path_length=16,
        )
        best = None
        for k, l in itertools.product(range(1, 17), range(1, 17)):
            if k * l > budget:
                continue
            pair = joint_resilience(p, k, l)
            if min(pair.release, pair.drop) >= target:
                if best is None or k * l < best:
                    best = k * l
        assert best is not None
        assert config.cost == best

    def test_infeasible_falls_back_to_best(self):
        config = plan_configuration("joint", 0.45, 100, target=0.999)
        assert not config.meets_target
        assert config.cost <= 100
        # The fallback should still beat the centralized baseline.
        assert config.worst_resilience >= 1 - 0.45 - 1e-9


class TestBudget:
    def test_budget_respected(self):
        for p in (0.1, 0.3, 0.45):
            for budget in (100, 1000, 10000):
                config = plan_configuration("joint", p, budget)
                assert config.cost <= budget

    def test_small_budget_limits_resilience(self):
        small = plan_configuration("joint", 0.35, 100)
        large = plan_configuration("joint", 0.35, 10000)
        assert large.worst_resilience >= small.worst_resilience - 1e-9


class TestPaperShapes:
    """The Fig. 6 claims the planner must reproduce (paper §IV-B.1)."""

    def test_joint_holds_099_to_p034(self):
        for p in (0.1, 0.2, 0.3, 0.34):
            assert plan_configuration("joint", p, 10000).worst_resilience > 0.99

    def test_joint_holds_09_to_p042(self):
        for p in (0.38, 0.42):
            assert plan_configuration("joint", p, 10000).worst_resilience > 0.9

    def test_joint_cost_explodes_after_p015(self):
        cheap = plan_configuration("joint", 0.15, 10000).cost
        expensive = plan_configuration("joint", 0.30, 10000).cost
        assert cheap < 100
        assert expensive > 3000
        assert plan_configuration("joint", 0.35, 10000).cost > 5000

    def test_disjoint_holds_09_to_p018(self):
        assert plan_configuration("disjoint", 0.15, 10000).worst_resilience > 0.9

    def test_disjoint_collapses_to_baseline(self):
        config = plan_configuration("disjoint", 0.45, 10000)
        assert config.worst_resilience == pytest.approx(0.55, abs=0.02)
        assert config.cost == 1  # degenerates to the centralized layout

    def test_ordering_joint_beats_disjoint_beats_central(self):
        for p in (0.1, 0.25, 0.4):
            joint = plan_configuration("joint", p, 10000).worst_resilience
            disjoint = plan_configuration("disjoint", p, 10000).worst_resilience
            central = plan_configuration("centralized", p, 10000).worst_resilience
            assert joint >= disjoint - 1e-9
            assert disjoint >= central - 1e-9


class TestValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            plan_configuration("mystery", 0.1, 100)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            plan_configuration("joint", -0.1, 100)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            plan_configuration("joint", 0.1, 0)


class TestMemo:
    """The decision is memoised; validation, ``central`` and the grids are not."""

    #: (scheme, p, N, target) over the fig6 / fig7 / availability grids.
    GRID = [
        (scheme, round(0.05 * i, 2), budget, target)
        for scheme in ("disjoint", "joint")
        for i in range(11)
        for budget in (100, 10000)
        for target in (planner.DEFAULT_TARGET, 0.9)
    ]

    def test_memoised_plan_equals_the_unmemoised_reference(self):
        reference = planner._plan_multipath.__wrapped__
        for scheme, p, budget, target in self.GRID:
            expected = reference(
                scheme,
                p,
                budget,
                target,
                planner.DEFAULT_MAX_REPLICATION,
                planner.DEFAULT_MAX_PATH_LENGTH,
            )
            for _ in range(2):  # a miss, then a hit
                planned = plan_configuration(scheme, p, budget, target=target)
                assert dataclasses.astuple(planned) == dataclasses.astuple(expected)

    def test_repeated_call_is_served_from_the_cache(self):
        planner._plan_multipath.cache_clear()
        first = plan_configuration("joint", 0.3, 10000)
        assert plan_configuration("joint", 0.3, 10000) is first
        info = planner._plan_multipath.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == planner.PLAN_CACHE_SIZE

    def test_invalid_arguments_raise_on_every_call(self):
        plan_configuration("joint", 0.1, 100)  # a valid neighbour, cached
        for _ in range(2):
            with pytest.raises(ValueError):
                plan_configuration("joint", 1.5, 100)
            with pytest.raises(ValueError):
                plan_configuration("joint", 0.1, 0)
            with pytest.raises(TypeError):
                plan_configuration("joint", 0.1, 100.0)
            with pytest.raises(ValueError):
                plan_configuration("joint", 0.1, 100, target=-0.5)
            with pytest.raises(ValueError):
                plan_configuration("mystery", 0.1, 100)

    def test_cached_values_are_plain_decisions_not_grids(self):
        """Every field is a builtin scalar: nothing numpy — no grid, no
        array scalar keeping one alive — is reachable from the cache."""
        for scheme, p, budget, target in self.GRID:
            planned = plan_configuration(scheme, p, budget, target=target)
            assert type(planned) is planner.PlannedConfiguration
            for field in dataclasses.fields(planned):
                value = getattr(planned, field.name)
                assert type(value) in (str, int, float, bool), field.name

    def test_central_bypasses_the_cache(self):
        before = planner._plan_multipath.cache_info()
        for name in ("central", "centralized"):
            assert plan_configuration(name, 0.2, 10000).cost == 1
        assert planner._plan_multipath.cache_info() == before
