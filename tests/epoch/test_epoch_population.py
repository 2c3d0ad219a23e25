"""Population layer: lifetime sampling, death epochs, session masks."""

import numpy as np
import pytest

from repro.churn.distributions import (
    FixedLifetime,
    ParetoLifetime,
    WeibullLifetime,
)
from repro.churn.lifetime import ExponentialLifetime
from repro.epoch.population import (
    EpochPopulation,
    death_epochs,
    make_lifetime_model,
    mean_lifetime_for_alpha,
    sample_lifetimes,
)


class TestAlphaMapping:
    def test_alpha_scales_mean_lifetime(self):
        # alpha lifetimes elapse over the l-epoch window: mean = l/alpha.
        assert mean_lifetime_for_alpha(2.0, 8) == 4.0
        assert mean_lifetime_for_alpha(0.5, 4) == 8.0

    def test_zero_alpha_means_immortal(self):
        assert mean_lifetime_for_alpha(0.0, 8) is None

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            mean_lifetime_for_alpha(-1.0, 8)


class TestModelFactory:
    def test_known_names(self):
        assert isinstance(
            make_lifetime_model("exponential", 10.0), ExponentialLifetime
        )
        assert isinstance(make_lifetime_model("weibull", 10.0), WeibullLifetime)
        assert isinstance(make_lifetime_model("pareto", 10.0), ParetoLifetime)
        assert isinstance(make_lifetime_model("fixed", 10.0), FixedLifetime)

    def test_shape_feeds_the_shape_knob(self):
        assert make_lifetime_model("weibull", 10.0, 1.5).shape == 1.5
        assert make_lifetime_model("pareto", 10.0, 2.5).tail_index == 2.5

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown lifetime model"):
            make_lifetime_model("zipf", 10.0)

    @pytest.mark.parametrize("name", ["exponential", "fixed"])
    def test_a_shapeless_model_refuses_a_shape(self, name):
        with pytest.raises(ValueError, match="lifetime_shape"):
            make_lifetime_model(name, 10.0, 5.0)

    @pytest.mark.parametrize(
        "name,knob,default",
        [
            ("weibull", "shape", WeibullLifetime(10.0).shape),
            ("pareto", "tail_index", ParetoLifetime(10.0).tail_index),
        ],
    )
    def test_no_shape_keeps_the_model_default(self, name, knob, default):
        model = make_lifetime_model(name, 10.0, None)
        assert getattr(model, knob) == default
        assert model.mean_lifetime == 10.0


class TestVectorizedSampling:
    @pytest.mark.parametrize(
        "model",
        [
            ExponentialLifetime(20.0),
            WeibullLifetime(20.0, shape=0.6),
            ParetoLifetime(20.0, tail_index=2.5),
            FixedLifetime(20.0),
        ],
        ids=repr,
    )
    def test_mean_matches_model(self, model):
        draws = sample_lifetimes(model, 40000, np.random.default_rng(3))
        assert draws.shape == (40000,)
        assert (draws > 0).all()
        assert draws.mean() == pytest.approx(20.0, rel=0.1)

    def test_matches_scalar_marginal(self):
        # Same inverse-CDF transform as draw_lifetime: the two lanes'
        # quantiles line up, not just the means.
        model = WeibullLifetime(50.0, shape=0.6)
        vector = sample_lifetimes(model, 30000, np.random.default_rng(4))
        survival_at_mean = (vector > 50.0).mean()
        assert survival_at_mean == pytest.approx(
            model.survival(50.0), abs=0.02
        )

    def test_empty_and_negative_sizes(self):
        model = FixedLifetime(5.0)
        assert sample_lifetimes(model, 0, np.random.default_rng(0)).size == 0
        with pytest.raises(ValueError):
            sample_lifetimes(model, -1, np.random.default_rng(0))


class TestDeathEpochs:
    def test_ceiling_with_floor_of_one(self):
        assert death_epochs(np.array([0.2, 1.0, 1.1, 5.0])).tolist() == [
            1.0,
            1.0,
            2.0,
            5.0,
        ]

    def test_infinite_lifetime_never_dies(self):
        assert np.isinf(death_epochs(np.array([np.inf]))[0])


class TestEpochPopulation:
    def test_sample_marks_exact_count(self):
        population = EpochPopulation.sample(
            ExponentialLifetime(4.0), 1000, 0.25, 0.9,
            np.random.default_rng(5),
        )
        assert population.malicious_count == 250
        assert population.malicious_rate == 0.25

    def test_immortal_population(self):
        population = EpochPopulation.sample(
            None, 100, 0.1, 1.0, np.random.default_rng(6)
        )
        assert np.isinf(population.death_epoch).all()

    def test_online_mask_rate(self):
        population = EpochPopulation.sample(
            None, 20000, 0.0, 0.8, np.random.default_rng(7)
        )
        mask = population.online_mask(np.random.default_rng(8))
        assert mask.mean() == pytest.approx(0.8, abs=0.02)

    def test_online_mask_degenerate_uptimes_draw_nothing(self):
        population = EpochPopulation.sample(
            None, 50, 0.0, 1.0, np.random.default_rng(9)
        )
        generator = np.random.default_rng(10)
        state = generator.bit_generator.state
        assert population.online_mask(generator).all()
        assert generator.bit_generator.state == state

    def test_validation(self):
        generator = np.random.default_rng(11)
        with pytest.raises(ValueError):
            EpochPopulation.sample(None, 0, 0.0, 1.0, generator)
        with pytest.raises(ValueError):
            EpochPopulation.sample(None, 10, 1.5, 1.0, generator)
        with pytest.raises(ValueError):
            EpochPopulation(np.ones(4), malicious_count=5, uptime=1.0)
