"""Scalar oracle ≡ vectorized epoch kernel (the acceptance property).

The scalar walker (``tests/epoch_oracle.py``) gives every trial a private
population; the vectorized lane runs numpy slabs over one shared
population per batch.  The marginals are identical, but the trials of one
batch share its population, so a single batch's count is overdispersed
against a binomial.  The vector side therefore runs in ``BATCHES``
batches, enough independent populations for the Wilson comparison to be
fair.  The contract is *statistical*: every estimated proportion must sit
inside overlapping Wilson intervals at z = 3.29 (99.9%).  The cases are a
fixed grid at fixed seeds, so no example database can change what runs.
Degenerate corners (immortal nodes + full uptime) must agree *exactly*
with the closed-form static behaviour.
"""

from itertools import product

import numpy as np
import pytest

from epoch_oracle import EpochAvailabilityTrial, EpochTimelinessTrial
from repro.epoch.measure import EpochAvailabilityBatch, EpochTimelinessBatch
from repro.experiments.engine import TrialEngine
from repro.util.stats import wilson_proportion_ci

TRIALS = 300
BATCHES = 10
POPULATION = 400
SEEDS = (1274, 2017)


def overlapping(first, second) -> bool:
    """Do two (successes, trials) Wilson intervals overlap at z = 3.29?"""
    _, low_a, high_a = wilson_proportion_ci(*first, z_score=3.29)
    _, low_b, high_b = wilson_proportion_ci(*second, z_score=3.29)
    return low_a <= high_b and low_b <= high_a


def both_lanes(batch, trial, channels, seed, trials=TRIALS):
    """``(vector, scalar)`` engine results: the vectorized lane in
    ``BATCHES`` batches, the oracle one trial at a time."""
    engine = TrialEngine()
    vector = engine.run_batched(
        batch,
        trials=trials,
        seed=seed,
        label="equiv-vec",
        channels=channels,
        batch_size=trials // BATCHES,
    )
    scalar = engine.run(
        trial, trials=trials, seed=seed, label="equiv-sca", channels=channels
    )
    return vector, scalar


def assert_lanes_agree(vector, scalar):
    for channel, (v, s) in enumerate(zip(vector.estimates, scalar.estimates)):
        assert overlapping(
            (v.successes, v.trials), (s.successes, s.trials)
        ), (channel, v, s)


def availability_lanes(seed, scheme, p, uptime, alpha, lifetime):
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
    return both_lanes(
        EpochAvailabilityBatch(**fields), EpochAvailabilityTrial(**fields), 2, seed
    )


UPTIMES = (0.8, 0.95)
LIFETIMES = ("exponential", "weibull", "pareto")

#: Every (scheme, p, alpha); the uptimes and lifetime models take turns.
AVAILABILITY_CASES = [
    (scheme, p, UPTIMES[index % 2], alpha, LIFETIMES[index % 3])
    for index, (scheme, p, alpha) in enumerate(
        product(("disjoint", "joint"), (0.0, 0.1, 0.3), (0.0, 1.0, 3.0))
    )
]


class TestAvailabilityEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "scheme, p, uptime, alpha, lifetime", AVAILABILITY_CASES
    )
    def test_lanes_agree_within_wilson(
        self, seed, scheme, p, uptime, alpha, lifetime
    ):
        assert_lanes_agree(
            *availability_lanes(seed, scheme, p, uptime, alpha, lifetime)
        )

    def test_no_churn_full_uptime_degenerate_corner(self):
        # alpha = 0 (immortal) + uptime 1.0: no repairs and no offline
        # nodes, so release reduces to "every column placed a malicious
        # replica" and the only drops left are fully-malicious columns
        # withholding under joint forwarding.  Both lanes must agree.
        assert_lanes_agree(
            *availability_lanes(99, "joint", 0.2, 1.0, 0.0, "exponential")
        )

    def test_honest_population_never_releases(self):
        vector, scalar = availability_lanes(
            7, "disjoint", 0.0, 0.9, 2.0, "exponential"
        )
        assert vector.estimates[0].successes == 0
        assert scalar.estimates[0].successes == 0


def timeliness_fields(**overrides):
    return dict(
        dict(
            malicious_rate=0.0,
            uptime=0.85,
            replication=3,
            path_length=4,
            population_size=POPULATION,
            alpha=0.0,
            lifetime="exponential",
            retry_epochs=6,
        ),
        **overrides,
    )


class TestTimelinessEquivalence:
    # Neither timeliness unit takes a scheme (the walk is the same for
    # both multipath schemes), so the grid spends its runs on seeds.
    @pytest.mark.parametrize("seed", SEEDS + (7, 31337))
    @pytest.mark.parametrize("p, alpha", list(product((0.0, 0.2), (0.0, 2.0))))
    def test_lanes_agree_within_wilson(self, seed, p, alpha):
        fields = timeliness_fields(malicious_rate=p, alpha=alpha)
        batch = EpochTimelinessBatch(**fields)
        assert_lanes_agree(
            *both_lanes(batch, EpochTimelinessTrial(**fields), batch.channels, seed)
        )

    def test_perfect_conditions_deliver_on_time(self):
        # No churn, no adversary, full uptime: every chain delivers with
        # zero lateness in both lanes.
        fields = timeliness_fields(
            uptime=1.0, replication=2, path_length=3, retry_epochs=4
        )
        batch = EpochTimelinessBatch(**fields)
        for result in both_lanes(
            batch, EpochTimelinessTrial(**fields), batch.channels, 1, trials=50
        ):
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
                10, 1, TrialEngine(), None,
            )

    def test_internal_chunking_matches_unchunked(self, monkeypatch):
        import repro.epoch.measure as measure

        batch = EpochAvailabilityBatch(0.2, 0.9, 3, 4, POPULATION, 2.0)
        unchunked = batch(np.random.default_rng(3), 200)
        monkeypatch.setattr(measure, "MAX_SLAB_ELEMENTS", 600)
        chunked = batch(np.random.default_rng(3), 200)
        assert overlapping((unchunked[0], 200), (chunked[0], 200))
        assert overlapping((unchunked[1], 200), (chunked[1], 200))
