"""Lifetime and availability models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.churn.lifetime import ExponentialLifetime, death_probability
from repro.churn.session import AlwaysAvailable, IntermittentAvailability
from repro.util.rng import RandomSource


class TestExponentialLifetime:
    def test_death_probability_formula(self):
        model = ExponentialLifetime(100.0)
        assert model.death_probability(100.0) == pytest.approx(1 - math.exp(-1))
        assert model.death_probability(0.0) == 0.0

    def test_draw_mean(self):
        model = ExponentialLifetime(50.0)
        rng = RandomSource(8)
        draws = [model.draw_lifetime(rng) for _ in range(20000)]
        assert 48 < sum(draws) / len(draws) < 52

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialLifetime(0.0)

    def test_memorylessness_of_period_probability(self):
        # Two half-periods compose to one full period:
        # 1 - (1-p_half)^2 == p_full.
        model = ExponentialLifetime(10.0)
        p_half = model.death_probability(1.0)
        p_full = model.death_probability(2.0)
        assert 1 - (1 - p_half) ** 2 == pytest.approx(p_full)


class TestModuleHelpers:
    def test_death_probability(self):
        assert death_probability(3.0, 1.0) == pytest.approx(1 - math.exp(-3))

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_matches_the_lifetime_model(self, duration, mean_lifetime):
        model = ExponentialLifetime(mean_lifetime)
        assert death_probability(duration, mean_lifetime) == model.death_probability(
            duration
        )

    def test_holding_period_quantity(self):
        # Algorithm 1 line 2: p_dead = 1 - e^{-alpha / l} for a holding
        # period of t_s / l = alpha * t_life / l.
        alpha, path_length, mean_lifetime = 3.0, 10, 10.0
        holding_period = alpha * mean_lifetime / path_length
        assert death_probability(holding_period, mean_lifetime) == pytest.approx(
            1 - math.exp(-0.3)
        )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            death_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            death_probability(1.0, 0.0)


class TestAvailability:
    def test_always_available(self):
        model = AlwaysAvailable()
        rng = RandomSource(1)
        assert model.is_available(rng)
        assert model.draw_online_duration(rng) == float("inf")
        assert model.draw_offline_duration(rng) == 0.0

    def test_uptime_fraction(self):
        model = IntermittentAvailability(mean_online=30.0, mean_offline=10.0)
        assert model.uptime_fraction == pytest.approx(0.75)

    def test_zero_offline_is_always_up(self):
        model = IntermittentAvailability(mean_online=90.0, mean_offline=0.0)
        assert model.uptime_fraction == 1.0
        assert model.draw_offline_duration(RandomSource(3)) == 0.0

    def test_nonpositive_online_rejected(self):
        with pytest.raises(ValueError):
            IntermittentAvailability(mean_online=0.0, mean_offline=10.0)
        with pytest.raises(ValueError):
            IntermittentAvailability(mean_online=10.0, mean_offline=-1.0)

    def test_instantaneous_availability_matches_uptime(self):
        model = IntermittentAvailability(mean_online=30.0, mean_offline=10.0)
        rng = RandomSource(2)
        hits = sum(model.is_available(rng) for _ in range(20000))
        assert 0.72 < hits / 20000 < 0.78
