"""The Fig. 6 kernel against its exact answer, and the epoch lane's
speed-up gate.

Fixed sizes, one run per lane, in process.  Agreement is per measured
point and channel at z = 3.29 (99.9%) — with dozens of comparisons at
once, a 95% interval would trip on one legitimate 2-sigma excursion about
half the time.  The epoch lane races the scalar walker of
``tests/epoch_oracle.py``.  The Fig. 6 kernel has no slower lane left to
race: its speed is bounded in CI on the ledger's
``experiments.kernel_trials_per_s.attack``.  Each test prints what it
measured (``-s`` to see it).
"""

import time
from dataclasses import asdict

import fig6_exact
from epoch_oracle import EpochAvailabilityTrial
from repro import api
from repro.core.planner import plan_configuration
from repro.experiments.churn_model import outcome_from_result
from repro.experiments.engine import TrialEngine
from repro.scenarios.runners import get_runner
from repro.util.stats import wilson_proportion_ci


def overlap(first, second):
    """Do two ``(successes, trials)`` Wilson intervals at z = 3.29 meet?"""
    _, low_a, high_a = wilson_proportion_ci(*first, z_score=3.29)
    _, low_b, high_b = wilson_proportion_ci(*second, z_score=3.29)
    return low_a <= high_b and low_b <= high_a


def timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start


def test_fig6_kernel_matches_finite_resilience():
    """All of Fig. 6(a), N = 10,000, 60 trials per point: every measured
    point-channel's Wilson interval holds the exact finite-N value."""
    report, seconds = timed(lambda: api.run_scenario("fig6a", trials=60))
    rows = list(fig6_exact.channels(report))
    for point, channel, estimate, exact, _ in rows:
        assert fig6_exact.bracketed(estimate, exact), (point, channel, estimate)
    assert len(rows) == 66
    print(
        f"\nfig6a @60: {seconds:.2f} s, the exact value inside the interval "
        f"on all {len(rows)} point-channels"
    )


def vectorized(nodes, trials):
    """One epoch_availability point, as a sweep runs it."""
    return get_runner("epoch_availability")(
        {
            "scheme": "joint",
            "uptime": 0.9,
            "p": 0.2,
            "population_size": nodes,
            "alpha": 2.0,
        },
        trials,
        2017,
        TrialEngine(),
    )


def walked(nodes, trials):
    """The same point through the scalar oracle, one trial at a time."""
    plan = plan_configuration("joint", 0.2, nodes)
    trial = EpochAvailabilityTrial(
        0.2, 0.9, plan.replication, plan.path_length, nodes, 2.0, joint=True
    )
    result = TrialEngine().run(
        trial, trials=trials, seed=2017, label="oracle", channels=2
    )
    return asdict(outcome_from_result(result))


def test_epoch_lane_beats_scalar_walker():
    """One availability point at 10^5 nodes and 200 trials through the
    numpy epoch lane and the scalar reference walker."""
    nodes, trials = 100_000, 200
    vectorized(2000, 20)  # imports and allocator, outside the timing
    fast, fast_s = timed(vectorized, nodes, trials)
    slow, slow_s = timed(walked, nodes, trials)

    for channel in ("release_resilience", "drop_resilience"):
        pair = [(round(lane[channel] * trials), trials) for lane in (fast, slow)]
        assert overlap(*pair), (channel, pair)

    speedup = slow_s / fast_s
    print(
        f"\nepoch lane: N={nodes} trials={trials} vectorized {fast_s:.2f} s, "
        f"scalar {slow_s:.2f} s -> x{speedup:.1f}"
    )
    assert speedup > 1.0
