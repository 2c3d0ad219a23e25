"""Scalar oracle ≡ vectorized epoch kernel (the acceptance property).

The scalar walker drives ``churn.replication`` objects per trial with a
private population; the vectorized lane runs numpy slabs over one shared
population per batch.  Identical marginals, so the contract is
*statistical*: on pinned small-N seeded runs every estimated proportion
must sit inside overlapping Wilson intervals at z = 3.29 (99.9%) —
pinned seeds make each comparison deterministic, and the wide intervals
keep the family-wise false-trip rate negligible across the Hypothesis
examples.  Degenerate corners (immortal nodes + full uptime) must agree
*exactly* with the closed-form static behaviour.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.epoch.measure import EpochAvailabilityBatch, EpochTimelinessBatch
from repro.epoch.oracle import EpochAvailabilityTrial, EpochTimelinessTrial
from repro.experiments.engine import TrialEngine
from repro.util.stats import wilson_proportion_ci

TRIALS = 300
POPULATION = 400


def overlapping(first, second) -> bool:
    """Do two (successes, trials) Wilson intervals overlap at z = 3.29?"""
    _, low_a, high_a = wilson_proportion_ci(*first, z_score=3.29)
    _, low_b, high_b = wilson_proportion_ci(*second, z_score=3.29)
    return low_a <= high_b and low_b <= high_a


def availability_counts(seed, scheme, p, uptime, alpha, lifetime):
    engine = TrialEngine()
    fields = dict(
        malicious_rate=p,
        uptime=uptime,
        replication=3,
        path_length=4,
        population_size=POPULATION,
        alpha=alpha,
        lifetime=lifetime,
        joint=(scheme == "joint"),
    )
    vector = engine.run_batched(
        EpochAvailabilityBatch(**fields),
        trials=TRIALS,
        seed=seed,
        label="equiv-vec",
        channels=2,
    )
    scalar = engine.run(
        EpochAvailabilityTrial(**fields),
        trials=TRIALS,
        seed=seed,
        label="equiv-sca",
        channels=2,
    )
    return vector, scalar


class TestAvailabilityEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scheme=st.sampled_from(["disjoint", "joint"]),
        p=st.sampled_from([0.0, 0.1, 0.3]),
        uptime=st.sampled_from([0.8, 0.95]),
        alpha=st.sampled_from([0.0, 1.0, 3.0]),
        lifetime=st.sampled_from(["exponential", "weibull", "pareto"]),
    )
    def test_lanes_agree_within_wilson(
        self, seed, scheme, p, uptime, alpha, lifetime
    ):
        vector, scalar = availability_counts(
            seed, scheme, p, uptime, alpha, lifetime
        )
        for channel in range(2):
            v = vector.estimates[channel]
            s = scalar.estimates[channel]
            assert overlapping(
                (v.successes, v.trials), (s.successes, s.trials)
            ), (channel, v, s)

    def test_no_churn_full_uptime_degenerate_corner(self):
        # alpha = 0 (immortal) + uptime 1.0: no repairs and no offline
        # nodes, so release reduces to "every column placed a malicious
        # replica" and the only drops left are fully-malicious columns
        # withholding under joint forwarding.  Both lanes must agree.
        vector, scalar = availability_counts(
            99, "joint", 0.2, 1.0, 0.0, "exponential"
        )
        for channel in range(2):
            v = vector.estimates[channel]
            s = scalar.estimates[channel]
            assert overlapping(
                (v.successes, v.trials), (s.successes, s.trials)
            ), (channel, v, s)

    def test_honest_population_never_releases(self):
        vector, scalar = availability_counts(
            7, "disjoint", 0.0, 0.9, 2.0, "exponential"
        )
        assert vector.estimates[0].successes == 0
        assert scalar.estimates[0].successes == 0


class TestTimelinessEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scheme=st.sampled_from(["disjoint", "joint"]),
        p=st.sampled_from([0.0, 0.2]),
        alpha=st.sampled_from([0.0, 2.0]),
    )
    def test_lanes_agree_within_wilson(self, seed, scheme, p, alpha):
        engine = TrialEngine()
        fields = dict(
            malicious_rate=p,
            uptime=0.85,
            replication=3,
            path_length=4,
            population_size=POPULATION,
            alpha=alpha,
            lifetime="exponential",
            retry_epochs=6,
        )
        batch = EpochTimelinessBatch(**fields)
        vector = engine.run_batched(
            batch,
            trials=TRIALS,
            seed=seed,
            label="equiv-vec",
            channels=batch.channels,
        )
        trial = EpochTimelinessTrial(**fields)
        scalar = engine.run(
            trial,
            trials=TRIALS,
            seed=seed,
            label="equiv-sca",
            channels=trial.channels,
        )
        for channel in range(batch.channels):
            v = vector.estimates[channel]
            s = scalar.estimates[channel]
            assert overlapping(
                (v.successes, v.trials), (s.successes, s.trials)
            ), (channel, v, s)

    def test_perfect_conditions_deliver_on_time(self):
        # No churn, no adversary, full uptime: every chain delivers with
        # zero lateness in both lanes.
        engine = TrialEngine()
        fields = dict(
            malicious_rate=0.0,
            uptime=1.0,
            replication=2,
            path_length=3,
            population_size=POPULATION,
            alpha=0.0,
            lifetime="exponential",
            retry_epochs=4,
        )
        batch = EpochTimelinessBatch(**fields)
        vector = engine.run_batched(
            batch, trials=50, seed=1, label="v", channels=batch.channels
        )
        trial = EpochTimelinessTrial(**fields)
        scalar = engine.run(
            trial, trials=50, seed=1, label="s", channels=trial.channels
        )
        for result in (vector, scalar):
            assert result.estimates[0].successes == 50
            assert all(e.successes == 0 for e in result.estimates[1:])


class TestBatchContracts:
    def test_batch_partition_only_shifts_statistics(self):
        # Different partitions draw different streams — results differ
        # by sampling noise, never systematically.
        batch = EpochAvailabilityBatch(0.2, 0.9, 3, 4, POPULATION, 2.0)
        engine = TrialEngine()
        whole = engine.run_batched(
            batch, trials=TRIALS, seed=5, label="x", channels=2
        )
        split = engine.run_batched(
            batch, trials=TRIALS, seed=5, label="x", channels=2, batch_size=50
        )
        for channel in range(2):
            w = whole.estimates[channel]
            s = split.estimates[channel]
            assert overlapping(
                (w.successes, w.trials), (s.successes, s.trials)
            )

    def test_share_scheme_rejected(self):
        from repro.epoch.measure import epoch_availability_outcome

        with pytest.raises(ValueError, match="multipath"):
            epoch_availability_outcome(
                "share", 0.9, 0.1, 100, 2.0, "exponential", None,
                10, 1, TrialEngine(), None, scalar=False,
            )

    def test_internal_chunking_matches_unchunked(self, monkeypatch):
        import repro.epoch.measure as measure

        batch = EpochAvailabilityBatch(0.2, 0.9, 3, 4, POPULATION, 2.0)
        unchunked = batch(np.random.default_rng(3), 200)
        monkeypatch.setattr(measure, "MAX_SLAB_ELEMENTS", 600)
        chunked = batch(np.random.default_rng(3), 200)
        assert overlapping((unchunked[0], 200), (chunked[0], 200))
        assert overlapping((unchunked[1], 200), (chunked[1], 200))
