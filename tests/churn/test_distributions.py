"""Alternative lifetime distributions."""

import math

import pytest

from repro.churn.distributions import (
    FixedLifetime,
    ParetoLifetime,
    WeibullLifetime,
)
from repro.churn.lifetime import ExponentialLifetime
from repro.util.rng import RandomSource


def empirical_mean(model, draws=20000, seed=1):
    rng = RandomSource(seed)
    return sum(model.draw_lifetime(rng) for _ in range(draws)) / draws


class TestWeibull:
    def test_mean_matches_target(self):
        model = WeibullLifetime(100.0, shape=0.6)
        assert empirical_mean(model) == pytest.approx(100.0, rel=0.1)

    def test_shape_one_is_exponential(self):
        weibull = WeibullLifetime(50.0, shape=1.0)
        exponential = ExponentialLifetime(50.0)
        for duration in (10.0, 50.0, 200.0):
            assert weibull.death_probability(duration) == pytest.approx(
                exponential.death_probability(duration), abs=1e-9
            )

    def test_heavy_tail_has_more_early_deaths(self):
        heavy = WeibullLifetime(100.0, shape=0.5)
        light = WeibullLifetime(100.0, shape=1.0)
        # Same mean, but the heavy-tailed model kills more nodes early...
        assert heavy.death_probability(10.0) > light.death_probability(10.0)
        # ...and keeps more of its survivors very long.
        assert heavy.death_probability(500.0) < light.death_probability(500.0)

    def test_cdf_bounds(self):
        model = WeibullLifetime(10.0, shape=0.7)
        assert model.death_probability(0.0) == 0.0
        assert model.death_probability(1e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeibullLifetime(0.0)
        with pytest.raises(ValueError):
            WeibullLifetime(10.0, shape=0.0)


class TestPareto:
    def test_mean_matches_target(self):
        model = ParetoLifetime(100.0, tail_index=2.5)
        assert empirical_mean(model) == pytest.approx(100.0, rel=0.15)

    def test_no_deaths_below_minimum(self):
        model = ParetoLifetime(100.0, tail_index=2.0)
        assert model.death_probability(model.minimum * 0.9) == 0.0

    def test_tail_index_must_exceed_one(self):
        with pytest.raises(ValueError):
            ParetoLifetime(100.0, tail_index=1.0)

    def test_survival_decreasing(self):
        model = ParetoLifetime(100.0, tail_index=1.5)
        ages = [model.minimum * factor for factor in (1.0, 2.0, 5.0, 20.0)]
        survivals = [1.0 - model.death_probability(age) for age in ages]
        assert survivals == sorted(survivals, reverse=True)
        assert survivals[0] == 1.0


class TestFixed:
    def test_deterministic(self):
        model = FixedLifetime(42.0)
        rng = RandomSource(2)
        assert model.draw_lifetime(rng) == 42.0
        assert model.death_probability(41.9) == 0.0
        assert model.death_probability(42.0) == 1.0


class TestWithChurnProcess:
    def test_process_accepts_alternative_models(self):
        from repro.churn.process import ChurnProcess
        from repro.dht.bootstrap import build_network

        for model in (
            WeibullLifetime(50.0, shape=0.6),
            ParetoLifetime(50.0, tail_index=1.8),
        ):
            overlay = build_network(30, seed=61)
            process = ChurnProcess(
                overlay.network, model, RandomSource(62, "churn")
            )
            process.start()
            overlay.loop.run(until=100.0)
            assert process.deaths > 0
            assert process.summary()["online"] == 30


class TestScaleValidation:
    """Zero/negative scale rejection across every lifetime model.

    These distributions feed the epoch simulator's population sampling,
    so a bad scale must fail loudly at construction, never mid-sweep.
    """

    @pytest.mark.parametrize("bad_mean", [0.0, -1.0, -100.0])
    def test_all_models_reject_nonpositive_mean(self, bad_mean):
        for factory in (
            ExponentialLifetime,
            WeibullLifetime,
            ParetoLifetime,
            FixedLifetime,
        ):
            with pytest.raises(ValueError):
                factory(bad_mean)

    def test_weibull_rejects_nonpositive_shape(self):
        for bad_shape in (0.0, -0.6):
            with pytest.raises(ValueError):
                WeibullLifetime(100.0, shape=bad_shape)


class TestMeanSanity:
    """Seeded sampling recovers each model's configured mean."""

    @pytest.mark.parametrize(
        "model",
        [
            ExponentialLifetime(40.0),
            ExponentialLifetime(400.0),
            WeibullLifetime(40.0, shape=0.6),
            WeibullLifetime(40.0, shape=1.5),
            ParetoLifetime(40.0, tail_index=2.5),
        ],
        ids=repr,
    )
    def test_empirical_mean_matches_configuration(self, model):
        assert empirical_mean(model, draws=40000, seed=5) == pytest.approx(
            model.mean_lifetime, rel=0.12
        )

    def test_all_draws_positive(self):
        rng = RandomSource(17)
        for model in (
            ExponentialLifetime(10.0),
            WeibullLifetime(10.0, shape=0.6),
            ParetoLifetime(10.0, tail_index=1.5),
            FixedLifetime(10.0),
        ):
            assert all(model.draw_lifetime(rng) > 0 for _ in range(500))
