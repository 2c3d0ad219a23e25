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
        assert all(
            by_index.is_malicious(node) == by_list.is_malicious(node)
            for node in range(1000)
        )

    def test_exact_count_without_materializing(self):
        population = SybilPopulation(0.25, RandomSource(42))
        marked = population.mark_index_population(10000)
        assert len(marked) == 2500
        assert population.malicious_count == 2500


class TestQueries:
    def test_unknown_is_honest(self):
        population = SybilPopulation(1.0, RandomSource(5))
        assert not population.is_malicious("never seen")

    def test_force_flags(self):
        population = SybilPopulation(0.0, RandomSource(6))
        population.force_malicious(["evil"])
        assert population.is_malicious("evil")
        population.force_honest(["evil"])
        assert not population.is_malicious("evil")
