"""The batched parallel trial engine: determinism, stopping, and wiring.

The engine's contract is that the *executor is never observable in the
results*: serial and process-pool runs of the same seeded task are
byte-identical, for any trial count (including counts that do not
divide evenly into chunks) and any worker count.  These tests pin that
contract, the adaptive-early-stopping behaviour, and the backward
compatibility of the refactored experiment drivers.
"""

import random

import pytest

from repro.experiments.engine import EngineResult, TrialEngine
from repro.experiments.executors import (
    SerialExecutor,
    SweepPoolExecutor,
    trial_source,
)
from repro.scenarios.runners import get_runner
from repro.util.rng import RandomSource
from trial_units import (
    bernoulli_trial,
    counting_batch,
    dense_batch,
    indexed_measure,
    paired_trial,
)


def all_executors():
    return [
        SerialExecutor(),
        SweepPoolExecutor(jobs=2),
        SweepPoolExecutor(jobs=2, chunk_size=7),  # 53, 101 don't divide by 7
        SweepPoolExecutor(jobs=3, chunk_size=64),
    ]


class TestDeterminismAcrossExecutors:
    @pytest.mark.parametrize("trials", [1, 53, 101, 256])
    def test_single_channel_byte_identical(self, trials):
        reference = TrialEngine().run(
            bernoulli_trial, trials=trials, seed=11, label="det"
        )
        for executor in all_executors():
            result = TrialEngine(backend=executor).run(
                bernoulli_trial, trials=trials, seed=11, label="det"
            )
            assert result == reference, executor

    def test_paired_channels_byte_identical(self):
        reference = TrialEngine().run(
            paired_trial, trials=101, seed=5, label="pair", channels=2
        )
        for executor in all_executors():
            result = TrialEngine(backend=executor).run(
                paired_trial, trials=101, seed=5, label="pair", channels=2
            )
            assert result == reference, executor

    def test_adaptive_stopping_byte_identical(self):
        """The stopping decision is checkpointed, never executor-shaped."""
        results = [
            TrialEngine(backend=executor, tolerance=0.05).run(
                bernoulli_trial, trials=5000, seed=3, label="stop"
            )
            for executor in all_executors()
        ]
        assert all(result == results[0] for result in results)
        assert results[0].stopped_early

    def test_batched_mode_byte_identical(self):
        reference = TrialEngine().run_batched(
            counting_batch, trials=997, seed=13, label="vec", batch_size=100
        )
        for executor in all_executors():
            result = TrialEngine(backend=executor).run_batched(
                counting_batch, trials=997, seed=13, label="vec", batch_size=100
            )
            assert result == reference, executor

    def test_collect_mode_preserves_index_order(self):
        reference = TrialEngine().map(
            indexed_measure, trials=23, seed=7, label="m"
        )
        assert [index for index, _ in reference] == list(range(23))
        for executor in all_executors():
            values = TrialEngine(backend=executor).map(
                indexed_measure, trials=23, seed=7, label="m"
            )
            assert values == reference, executor


class TestOrderIndependence:
    """Seed-forked trials are order-independent by construction."""

    def test_shuffled_execution_matches_engine(self):
        trials = 120
        result = TrialEngine().run(
            bernoulli_trial, trials=trials, seed=21, label="perm"
        )
        indices = list(range(trials))
        random.Random(99).shuffle(indices)
        successes = sum(
            bernoulli_trial(trial_source(21, "perm", index)) for index in indices
        )
        assert successes == result.estimates[0].successes

    def test_trial_stream_is_pure_function_of_index(self):
        # The executors' stream derivation matches the historical
        # root.fork(f"{label}-{i}") scheme exactly.
        root = RandomSource(17, label="x")
        for index in (0, 1, 41):
            assert (
                trial_source(17, "x", index).random()
                == root.fork(f"x-{index}").random()
            )

    def test_prefix_counts_unaffected_by_later_trials(self):
        # Growing the trial count only appends trials; the first 60
        # streams (and so their success count) are untouched.
        short = TrialEngine().run(bernoulli_trial, trials=60, seed=8, label="p")
        long = TrialEngine().run(bernoulli_trial, trials=200, seed=8, label="p")
        prefix = sum(
            bernoulli_trial(trial_source(8, "p", index)) for index in range(60)
        )
        suffix = sum(
            bernoulli_trial(trial_source(8, "p", index)) for index in range(60, 200)
        )
        assert short.estimates[0].successes == prefix
        assert long.estimates[0].successes == prefix + suffix


class TestAdaptiveStopping:
    def test_stops_early_when_tolerance_met(self):
        result = TrialEngine(tolerance=0.02).run(
            lambda rng: rng.bernoulli(0.98), trials=2000, seed=3
        )
        assert result.stopped_early
        assert result.trials < 2000
        assert result.requested_trials == 2000
        # The acceptance target: ≥ 3× fewer trials at tolerance 0.02.
        assert result.trials * 3 <= 2000

    def test_never_stops_below_min_trials_floor(self):
        result = TrialEngine(tolerance=0.5).run(
            bernoulli_trial, trials=2000, seed=3
        )
        assert result.trials == 100  # the default floor, not fewer

    def test_custom_floor_respected(self):
        result = TrialEngine(tolerance=0.5, min_trials=300).run(
            bernoulli_trial, trials=2000, seed=3
        )
        assert result.trials == 300

    def test_runs_to_completion_when_tolerance_unreachable(self):
        result = TrialEngine(tolerance=0.001).run(
            bernoulli_trial, trials=300, seed=3
        )
        assert result.trials == 300
        assert not result.stopped_early

    def test_no_tolerance_always_runs_all_trials(self):
        result = TrialEngine().run(lambda rng: True, trials=500, seed=1)
        assert result.trials == 500
        assert not result.stopped_early

    def test_stopping_half_width_is_within_tolerance(self):
        tolerance = 0.03
        result = TrialEngine(tolerance=tolerance).run(
            lambda rng: rng.bernoulli(0.95), trials=5000, seed=9
        )
        assert result.stopped_early
        for estimate in result.estimates:
            assert estimate.half_width <= tolerance

    def test_rare_events_not_stopped_with_dishonest_interval(self):
        # The stopping rule uses the Wilson half-width, so a near-zero
        # proportion (exactly the attack-success channels of the
        # resilience figures) is not cut off at the floor by the normal
        # interval's degenerate variance floor (~1e-7 half-width at 0
        # successes, which meets *any* tolerance).
        result = TrialEngine(tolerance=0.01).run(
            lambda rng: rng.bernoulli(0.02), trials=2000, seed=5
        )
        assert result.trials > 100  # kept going past the floor
        from repro.util.stats import wilson_proportion_ci

        _, low, high = wilson_proportion_ci(
            result.estimates[0].successes, result.trials
        )
        assert (high - low) / 2.0 <= 0.01
        # The honest interval at the stop covers the true probability.
        assert low <= 0.02 <= high

    def test_batched_adaptive_stopping_byte_identical(self):
        results = [
            TrialEngine(backend=executor, tolerance=0.02).run_batched(
                dense_batch, trials=5000, seed=19, label="vstop", batch_size=100
            )
            for executor in all_executors()
        ]
        assert all(result == results[0] for result in results)
        assert results[0].stopped_early

    def test_wilson_ci_method(self):
        result = TrialEngine(tolerance=0.02, ci_method="wilson").run(
            lambda rng: True, trials=2000, seed=1
        )
        # Wilson keeps non-degenerate width at p̂ = 1, so the stop happens
        # once the interval is genuinely narrow, not at the floor.
        assert result.stopped_early
        assert result.estimates[0].low < 1.0

    def test_engine_parameters_validated(self):
        with pytest.raises(ValueError):
            TrialEngine(tolerance=-0.1)
        with pytest.raises(ValueError):
            TrialEngine(ci_method="bayes")
        with pytest.raises(ValueError):
            TrialEngine(min_trials=0)
        with pytest.raises(ValueError):
            TrialEngine().run(bernoulli_trial, trials=-1)


class TestEngineResult:
    def test_single_and_pair_accessors(self):
        one = TrialEngine().run(bernoulli_trial, trials=50, seed=2)
        assert one.single is one.estimates[0]
        with pytest.raises(ValueError):
            one.pair
        two = TrialEngine().run(paired_trial, trials=50, seed=2, channels=2)
        assert two.pair.release is two.estimates[0]
        with pytest.raises(ValueError):
            two.single

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrialEngine().run(paired_trial, trials=10, seed=2, channels=3)


class TestAttackResilienceSmoke:
    """The Fig. 6 kernel's counts at a pinned seed, on every engine.

    (scheme, p, release successes, drop successes) per point at seed=99,
    population=500, trials=50.  The batch partition is a fixed constant,
    so the serial engine and the process pool must both reproduce them
    exactly.
    """

    PINNED = [
        ("central", 0.1, 44, 44),
        ("central", 0.3, 29, 29),
        ("disjoint", 0.1, 50, 49),
        ("disjoint", 0.3, 34, 32),
        ("joint", 0.1, 50, 50),
        ("joint", 0.3, 50, 50),
    ]

    @pytest.mark.parametrize(
        "engine",
        [TrialEngine(), TrialEngine(backend=SweepPoolExecutor(jobs=2, chunk_size=7))],
        ids=["serial-default", "process-pool"],
    )
    def test_pinned_seed_values(self, engine):
        runner = get_runner("attack_resilience")
        records = [
            runner(
                {"scheme": scheme, "p": p, "population_size": 500},
                50,
                99,
                engine,
            )
            for scheme, p, _, _ in self.PINNED
        ]
        observed = [
            (
                record["scheme"],
                record["p"],
                record["measured"]["release"]["successes"],
                record["measured"]["drop"]["successes"],
            )
            for record in records
        ]
        assert observed == self.PINNED
        for record in records:
            assert record["trials_run"] == 50
