"""The closed forms of Fig. 7, Fig. 8 and the static availability lane,
held to the samplers they replaced.

Every lane's form is a product of independent events, so a sampler of the
same model can differ from it by noise only: each channel's attack-success
count must lie within z = 3.29 (two-sided 0.1%) of ``trials`` times the
form's success probability, and exactly on it where that probability is
0 or 1.  The sample of (p, α, k, l, uptime) is drawn once, from a fixed
seed, over the ranges the figures use.
"""

import math

import numpy as np
import pytest

import churn_samplers
from repro.core.schemes.keyshare import algorithm1
from repro.experiments.availability import (
    key_share_availability,
    multipath_availability,
)
from repro.experiments.churn_model import (
    centralized_churn,
    key_share_churn,
    multipath_churn,
)

TRIALS = 20_000
Z = 3.29


def _sample(count=8, seed=37):
    """(p, α, k, l, uptime) points: a corner or two, then uniform draws."""
    rng = np.random.default_rng(seed)
    points = [(0.0, 0.0, 3, 4, 1.0), (0.25, 3.0, 2, 6, 0.8)]
    while len(points) < count:
        points.append(
            (
                round(float(rng.uniform(0.0, 0.5)), 3),
                round(float(rng.uniform(0.0, 5.0)), 3),
                int(rng.integers(1, 7)),
                int(rng.integers(2, 13)),
                round(float(rng.uniform(0.5, 1.0)), 3),
            )
        )
    return points


def _plan(p, alpha, k, l):
    """A key-share plan balanced at a nearby rate, so the actual p differs."""
    return algorithm1(k, l, 100 * l, max(alpha, 0.1), 1.0, min(0.5, p + 0.05))


LANES = {
    "central-churn": (
        lambda p, a, k, l, up: centralized_churn(p, a),
        lambda p, a, k, l, up, rng: churn_samplers.centralized_churn_counts(
            p, a, TRIALS, rng
        ),
    ),
    "disjoint-churn": (
        lambda p, a, k, l, up: multipath_churn(p, a, k, l, joint=False),
        lambda p, a, k, l, up, rng: churn_samplers.multipath_churn_counts(
            p, a, k, l, TRIALS, rng, joint=False
        ),
    ),
    "joint-churn": (
        lambda p, a, k, l, up: multipath_churn(p, a, k, l, joint=True),
        lambda p, a, k, l, up, rng: churn_samplers.multipath_churn_counts(
            p, a, k, l, TRIALS, rng, joint=True
        ),
    ),
    "share-churn": (
        lambda p, a, k, l, up: key_share_churn(_plan(p, a, k, l), p),
        lambda p, a, k, l, up, rng: churn_samplers.key_share_churn_counts(
            _plan(p, a, k, l), TRIALS, rng, p
        ),
    ),
    "disjoint-availability": (
        lambda p, a, k, l, up: multipath_availability(p, up, k, l, joint=False),
        lambda p, a, k, l, up, rng: churn_samplers.multipath_availability_counts(
            p, up, k, l, TRIALS, rng, joint=False
        ),
    ),
    "joint-availability": (
        lambda p, a, k, l, up: multipath_availability(p, up, k, l, joint=True),
        lambda p, a, k, l, up, rng: churn_samplers.multipath_availability_counts(
            p, up, k, l, TRIALS, rng, joint=True
        ),
    ),
    "share-availability": (
        lambda p, a, k, l, up: key_share_availability(_plan(p, a, k, l), up, p),
        lambda p, a, k, l, up, rng: churn_samplers.key_share_availability_counts(
            _plan(p, a, k, l), up, p, TRIALS, rng
        ),
    ),
}

CASES = [
    pytest.param(lane, point, seed, id=f"{lane}-{index}")
    for seed, (lane, (index, point)) in enumerate(
        (lane, case) for lane in LANES for case in enumerate(_sample())
    )
]


def z_score(successes, trials, probability):
    if probability <= 0.0 or probability >= 1.0:
        return 0.0 if successes == round(trials * probability) else math.inf
    expected = trials * probability
    return (successes - expected) / math.sqrt(expected * (1.0 - probability))


@pytest.mark.parametrize("lane, point, seed", CASES)
def test_sampler_agrees_with_the_closed_form(lane, point, seed):
    form, sampler = LANES[lane]
    outcome = form(*point)
    assert outcome.trials == 0  # exact: no trial ran
    counts = sampler(*point, np.random.default_rng(seed))
    for channel, successes, resilience in zip(
        ("release", "drop"),
        counts,
        (outcome.release_resilience, outcome.drop_resilience),
    ):
        z = z_score(successes, TRIALS, 1.0 - resilience)
        assert abs(z) <= Z, (
            f"{lane} {channel} at {point}: {successes}/{TRIALS} successes "
            f"against the form's {1.0 - resilience:.6f} (z = {z:.2f})"
        )
