"""Tests for the deterministic random source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RandomSource, derive_seed


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = RandomSource(42)
        b = RandomSource(43)
        assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]

    def test_derive_seed_stable(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_derive_seed_parent_sensitive(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_derive_seed_non_negative(self):
        for seed in (-5, 0, 123456789):
            assert derive_seed(seed, "label") >= 0


class TestForking:
    def test_fork_same_label_same_stream(self):
        root = RandomSource(1)
        a = root.fork("child")
        b = root.fork("child")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_fork_independent_of_parent_consumption(self):
        root_a = RandomSource(1)
        root_b = RandomSource(1)
        for _ in range(100):
            root_b.random()  # consume parent draws
        child_a = root_a.fork("c")
        child_b = root_b.fork("c")
        assert child_a.random() == child_b.random()

    def test_fork_seeds_distinct_across_labels(self):
        root = RandomSource(5)
        forks = [root.fork(label) for label in ("x", "y", "z", "w", "v")]
        assert len({fork.seed for fork in forks}) == 5
        assert [fork.label for fork in forks] == ["x", "y", "z", "w", "v"]

    def test_distinct_labels_distinct_streams(self):
        root = RandomSource(1)
        assert root.fork("a").random() != root.fork("b").random()


class TestDraws:
    def test_randint_bounds(self):
        rng = RandomSource(3)
        values = [rng.randint(2, 5) for _ in range(200)]
        assert set(values) <= {2, 3, 4, 5}
        assert set(values) == {2, 3, 4, 5}  # all hit with 200 draws

    def test_random_bytes_length(self):
        rng = RandomSource(3)
        assert len(rng.random_bytes(17)) == 17
        assert rng.random_bytes(0) == b""

    def test_random_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(3).random_bytes(-1)

    def test_exponential_mean(self):
        rng = RandomSource(11)
        draws = [rng.exponential(10.0) for _ in range(20000)]
        mean = sum(draws) / len(draws)
        assert 9.5 < mean < 10.5

    def test_exponential_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RandomSource(1).exponential(0.0)

    def test_bernoulli_extremes(self):
        rng = RandomSource(1)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RandomSource(1).bernoulli(1.5)

    def test_bernoulli_rate(self):
        rng = RandomSource(5)
        hits = sum(rng.bernoulli(0.3) for _ in range(20000))
        assert 0.27 < hits / 20000 < 0.33


#: ``stop`` at and around every power of two up to 2**64 (where rejection
#: takes no draw, about half of them, or almost none), and one far beyond.
BOUNDARY_STOPS = sorted(
    {1, 10 ** 30}
    | {stop for k in range(1, 65) for stop in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
)


class TestBelow:
    """``below(stop, count)`` is ``randrange(stop)``, ``count`` times, on
    this interpreter: same values, and the stream left in the same place."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BOUNDARY_STOPS),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=2 ** 63 - 1),
    )
    def test_equals_randrange_draw_for_draw(self, stop, count, seed):
        fast, oracle = RandomSource(seed), RandomSource(seed)
        assert fast.below(stop, count) == [oracle.randrange(stop) for _ in range(count)]
        assert fast.random() == oracle.random()

    def test_every_boundary_stop(self):
        for stop in BOUNDARY_STOPS:
            fast, oracle = RandomSource(stop), RandomSource(stop)
            assert fast.below(stop, 50) == [oracle.randrange(stop) for _ in range(50)]
            assert fast.random() == oracle.random()

    @pytest.mark.parametrize("stop", [0, -1, -(2 ** 70)])
    def test_empty_range_rejected(self, stop):
        with pytest.raises(ValueError):
            RandomSource(1).below(stop, 3)

    def test_zero_count_takes_no_draw(self):
        source, untouched = RandomSource(8), RandomSource(8)
        assert source.below(2 ** 64 + 1, 0) == []
        assert source.random() == untouched.random()


class TestCollections:
    def test_choice_from_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).choice([])

    def test_sample_distinct(self):
        rng = RandomSource(2)
        sample = rng.sample(list(range(100)), 30)
        assert len(set(sample)) == 30

    def test_sample_indices_distinct_and_in_range(self):
        rng = RandomSource(2)
        indices = rng.sample_indices(1000, 100)
        assert len(set(indices)) == 100
        assert all(0 <= i < 1000 for i in indices)

    def test_sample_indices_over_population_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(1).sample_indices(5, 6)

    def test_shuffle_in_place(self):
        rng = RandomSource(4)
        items = list(range(50))
        rng.shuffle(items)
        assert sorted(items) == list(range(50))


class TestMisc:
    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RandomSource("not an int")

    def test_repr_mentions_label(self):
        assert "my-label" in repr(RandomSource(1, label="my-label"))
