"""Sybil population marking."""

import pytest

from repro.adversary.population import SybilPopulation
from repro.util.rng import RandomSource


class TestBulkMarking:
    def test_exact_count(self):
        population = SybilPopulation(0.3, RandomSource(1))
        marked = population.mark_population(list(range(1000)))
        assert len(marked) == 300
        assert population.malicious_count == 300

    def test_rounding(self):
        population = SybilPopulation(0.25, RandomSource(1))
        marked = population.mark_population(list(range(10)))
        assert len(marked) in (2, 3)  # round(2.5) is banker's rounding

    def test_zero_rate(self):
        population = SybilPopulation(0.0, RandomSource(1))
        assert population.mark_population(list(range(100))) == set()

    def test_full_rate(self):
        population = SybilPopulation(1.0, RandomSource(1))
        assert len(population.mark_population(list(range(100)))) == 100

    def test_marking_is_without_replacement(self):
        population = SybilPopulation(0.5, RandomSource(2))
        marked = population.mark_population(list(range(100)))
        assert len(marked) == len(set(marked)) == 50

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            SybilPopulation(1.5, RandomSource(1))


class TestIndexPopulationFastPath:
    """``mark_index_population`` is draw-for-draw ``mark_population(range)``."""

    def test_same_draws_as_list_marking(self):
        by_list = SybilPopulation(0.3, RandomSource(41))
        by_index = SybilPopulation(0.3, RandomSource(41))
        assert by_index.mark_index_population(1000) == by_list.mark_population(
            list(range(1000))
        )
        assert by_index.malicious_ids() == by_list.malicious_ids()

    def test_exact_count_without_materializing(self):
        population = SybilPopulation(0.25, RandomSource(42))
        marked = population.mark_index_population(10000)
        assert len(marked) == 2500
        assert population.malicious_count == 2500
        # The decided set stays empty: the interval carries the decisions.
        assert population._decided == set()

    def test_marked_ids_are_decided_not_redrawn(self):
        population = SybilPopulation(0.5, RandomSource(43))
        marked = population.mark_index_population(100)
        # decide() must return membership for every in-range id without
        # consuming randomness (a redraw would flip honest ids to
        # malicious at rate p).
        for node_id in range(100):
            assert population.decide(node_id) == (node_id in marked)
        assert population.malicious_count == len(marked)

    def test_later_joiners_still_decided_fresh(self):
        population = SybilPopulation(1.0, RandomSource(44))
        population.mark_index_population(10)
        assert population.decide(10)  # out of range: fresh coin at p=1
        assert not population.is_malicious(11)  # query-only stays honest

    def test_in_range_decisions_are_not_rememoized(self):
        population = SybilPopulation(0.0, RandomSource(45))
        population.mark_index_population(50)
        assert not population.decide(5)
        # The interval answers for in-range ids; nothing gets re-added.
        assert population._decided == set()


class TestIncrementalDecisions:
    def test_decide_memoized(self):
        population = SybilPopulation(0.5, RandomSource(3))
        first = population.decide("node-x")
        for _ in range(10):
            assert population.decide("node-x") == first

    def test_decide_rate(self):
        population = SybilPopulation(0.3, RandomSource(4))
        hits = sum(population.decide(f"node-{i}") for i in range(10000))
        assert 0.27 < hits / 10000 < 0.33

    def test_unknown_is_honest(self):
        population = SybilPopulation(1.0, RandomSource(5))
        assert not population.is_malicious("never seen")

    def test_force_flags(self):
        population = SybilPopulation(0.0, RandomSource(6))
        population.force_malicious(["evil"])
        assert population.is_malicious("evil")
        population.force_honest(["evil"])
        assert not population.is_malicious("evil")
        # Forced decisions stick even through decide().
        assert not population.decide("evil")


class TestHelpers:
    def test_honest_fraction(self):
        population = SybilPopulation(0.0, RandomSource(7))
        population.force_malicious([1, 2])
        assert population.honest_fraction_of([1, 2, 3, 4]) == 0.5

    def test_honest_fraction_empty_rejected(self):
        population = SybilPopulation(0.0, RandomSource(7))
        with pytest.raises(ValueError):
            population.honest_fraction_of([])
