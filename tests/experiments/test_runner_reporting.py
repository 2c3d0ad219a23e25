"""Single-estimate engine entry points and textual reporting."""

import pytest

from repro.experiments.engine import TrialEngine
from repro.experiments.reporting import format_series_table


class TestEstimateProbability:
    def test_deterministic(self):
        trial = lambda rng: rng.bernoulli(0.4)
        a = TrialEngine().estimate(trial, trials=500, seed=1)
        b = TrialEngine().estimate(trial, trials=500, seed=1)
        assert a == b

    def test_estimate_close_to_truth(self):
        result = TrialEngine().estimate(
            lambda rng: rng.bernoulli(0.3), trials=5000, seed=2
        )
        assert result.estimate == pytest.approx(0.3, abs=0.03)
        assert result.low <= 0.3 <= result.high

    def test_extremes(self):
        always = TrialEngine().estimate(lambda rng: True, trials=100, seed=3)
        never = TrialEngine().estimate(lambda rng: False, trials=100, seed=3)
        assert always.estimate == 1.0
        assert never.estimate == 0.0

    def test_trial_rngs_are_independent(self):
        observed = []

        def trial(rng):
            observed.append(rng.random())
            return True

        TrialEngine().estimate(trial, trials=50, seed=4)
        assert len(set(observed)) == 50

    def test_str_format(self):
        result = TrialEngine().estimate(lambda rng: True, trials=10, seed=5)
        assert "n=10" in str(result)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            TrialEngine().estimate(lambda rng: True, trials=-1)


class TestPairedEstimate:
    def test_paired_counts(self):
        def trial(rng):
            return rng.bernoulli(0.8), rng.bernoulli(0.2)

        pair = TrialEngine().estimate_pair(trial, trials=3000, seed=6)
        assert pair.release.estimate == pytest.approx(0.8, abs=0.03)
        assert pair.drop.estimate == pytest.approx(0.2, abs=0.03)
        assert pair.worst == pair.drop.estimate


class TestReporting:
    def test_series_table_alignment(self):
        text = format_series_table(
            "My figure",
            "p",
            [0.0, 0.1],
            {"central": [1.0, 0.9], "joint": [1.0, None]},
        )
        lines = text.splitlines()
        assert lines[0] == "My figure"
        assert "central" in lines[1] and "joint" in lines[1]
        assert "1.0000" in lines[3]
        assert "-" in lines[4]  # missing value placeholder

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("t", "p", [0.0, 0.1], {"a": [1.0]})

    def test_cost_table_integer_cells(self):
        text = format_series_table(
            "Costs", "p", [0.1], {"joint": [2048]}, value_format="{:.0f}"
        )
        assert "2048" in text
        assert "2048.0" not in text
