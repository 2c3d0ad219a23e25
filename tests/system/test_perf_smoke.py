"""The Fig. 6 kernel against its exact answer, and the epoch lane's
speed-up gate.

Fixed sizes, one run per lane, in process.  Agreement is per measured
point and channel at z = 3.29 (99.9%) — with dozens of comparisons at
once, a 95% interval would trip on one legitimate 2-sigma excursion about
half the time.  The Fig. 6 kernel has no slower lane left to race: its
speed is bounded in CI on the ledger's
``experiments.kernel_trials_per_s.attack``.  Each test prints what it
measured (``-s`` to see it).
"""

import time

import fig6_exact
from repro import api
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


def availability(kernel, nodes, trials):
    return get_runner("availability")(
        {
            "scheme": "joint",
            "uptime": 0.9,
            "p": 0.2,
            "population_size": nodes,
            "kernel": kernel,
            "alpha": 2.0,
        },
        trials,
        2017,
        TrialEngine(),
    )


def test_epoch_lane_beats_scalar_walker():
    """One availability point at 10^5 nodes and 200 trials through the
    numpy epoch lane and the scalar reference walker."""
    nodes, trials = 100_000, 200
    availability("epoch", 2000, 20)  # imports and allocator, outside the timing
    vectorized, vectorized_s = timed(availability, "epoch", nodes, trials)
    scalar, scalar_s = timed(availability, "epoch-scalar", nodes, trials)

    for channel in ("release_resilience", "drop_resilience"):
        pair = [(round(lane[channel] * trials), trials) for lane in (vectorized, scalar)]
        assert overlap(*pair), (channel, pair)

    speedup = scalar_s / vectorized_s
    print(
        f"\nepoch lane: N={nodes} trials={trials} vectorized {vectorized_s:.2f} s, "
        f"scalar {scalar_s:.2f} s -> x{speedup:.1f}"
    )
    assert speedup > 1.0
