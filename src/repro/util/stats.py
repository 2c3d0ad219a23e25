"""Statistics helpers shared by the analytic model and the Monte-Carlo harness.

Algorithm 1 of the paper needs binomial tail probabilities; the experiment
harness needs sample means with confidence intervals for the resilience
estimates it reports next to the closed-form values.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.util.validation import check_probability

#: The trial engine's stopping-rule defaults (see ``TrialEngine``), here so
#: a scenario spec can default to them without importing the engine.
DEFAULT_MIN_TRIALS = 100
DEFAULT_CHECK_INTERVAL = 100
DEFAULT_CHECKPOINT_BATCHES = 4


def binomial_pmf(successes: int, trials: int, probability: float) -> float:
    """Probability of exactly ``successes`` in ``trials`` Bernoulli draws."""
    probability = check_probability(probability, "probability")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if successes < 0 or successes > trials:
        return 0.0
    # math.comb handles big integers exactly; the float conversion at the end
    # is the only rounding step.
    combinations = math.comb(trials, successes)
    return (
        combinations
        * probability ** successes
        * (1.0 - probability) ** (trials - successes)
    )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of an empty sequence is undefined")
    return sum(values) / len(values)


def sample_proportion_ci(
    successes: int, trials: int, z_score: float = 1.96
) -> Tuple[float, float, float]:
    """Estimate a proportion with a normal-approximation confidence interval.

    Returns ``(estimate, low, high)``.  Used by the experiment reporters to
    show Monte-Carlo noise next to the analytic curves.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be within [0, {trials}], got {successes}"
        )
    estimate = successes / trials
    spread = z_score * math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / trials)
    return estimate, max(0.0, estimate - spread), min(1.0, estimate + spread)


def wilson_proportion_ci(
    successes: int, trials: int, z_score: float = 1.96
) -> Tuple[float, float, float]:
    """Wilson score interval for a proportion: ``(estimate, low, high)``.

    Unlike the normal approximation, the Wilson interval keeps honest
    (non-degenerate) width at 0 or ``trials`` successes, which matters for
    the trial engine's adaptive early stopping on near-certain events.
    The returned estimate is still the raw sample proportion, and at 0 or
    ``trials`` successes the closed end is exactly 0.0 or 1.0 (the float
    arithmetic would miss it by an ulp).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be within [0, {trials}], got {successes}"
        )
    estimate = successes / trials
    z_squared = z_score * z_score
    denominator = 1.0 + z_squared / trials
    center = (estimate + z_squared / (2.0 * trials)) / denominator
    spread = (
        z_score
        * math.sqrt(
            estimate * (1.0 - estimate) / trials
            + z_squared / (4.0 * trials * trials)
        )
        / denominator
    )
    low = 0.0 if successes == 0 else max(0.0, center - spread)
    high = 1.0 if successes == trials else min(1.0, center + spread)
    return estimate, low, high
