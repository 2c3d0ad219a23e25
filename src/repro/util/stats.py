"""Statistics helpers for the Monte-Carlo harness.

The experiment harness reports proportions with confidence intervals next
to the closed-form values, and the trial engine stops on their width.
"""

from __future__ import annotations

import math
from typing import Tuple

#: The trial engine's stopping-rule defaults (see ``TrialEngine``), here so
#: a scenario spec can default to them without importing the engine.
DEFAULT_MIN_TRIALS = 100
DEFAULT_CHECK_INTERVAL = 100
DEFAULT_CHECKPOINT_BATCHES = 4


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
