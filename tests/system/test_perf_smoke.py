"""The two speed-up gates: each fast lane must beat its scalar oracle on
the same work, and agree with it.

Fixed sizes, one run per lane, in process.  Agreement is per measured
point and channel: the two lanes' Wilson intervals overlap at z = 3.29
(99.9%) — with dozens of comparisons at once, a 95% interval would trip
on one legitimate 2-sigma excursion about half the time.  Each test
prints its speed-up (``-s`` to see it).
"""

import dataclasses
import time

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


def fig6a(kernel):
    spec = api.get_scenario("fig6a")
    spec = dataclasses.replace(spec, fixed={**spec.fixed, "kernel": kernel})
    return api.run_scenario(spec, trials=60)


def test_fig6_vectorized_kernel_beats_scalar():
    """All of Fig. 6(a), N = 10,000, 60 trials per point, through both
    attack lanes (``sweep run fig6a --kernel vectorized|scalar``)."""
    vectorized, vectorized_s = timed(fig6a, "vectorized")
    scalar, scalar_s = timed(fig6a, "scalar")

    checked = 0
    for fast, slow in zip(vectorized.results(), scalar.results()):
        assert (fast["scheme"], fast["p"]) == (slow["scheme"], slow["p"])
        if fast["measured"] is None:
            continue
        for channel in ("release", "drop"):
            estimates = (fast["measured"][channel], slow["measured"][channel])
            pair = [(e["successes"], e["trials"]) for e in estimates]
            assert overlap(*pair), (fast["scheme"], fast["p"], channel, pair)
            checked += 1
    assert checked

    speedup = scalar_s / vectorized_s
    print(
        f"\nfig6a: vectorized {vectorized_s:.2f} s, scalar {scalar_s:.2f} s "
        f"-> x{speedup:.1f}, intervals overlap on all {checked} point-channels"
    )
    assert speedup > 1.0


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
