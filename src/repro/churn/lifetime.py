"""Node lifetime models.

The paper (following Bhagwan et al., "Replication strategies for highly
available peer-to-peer storage") models node death as exponential decay:
the probability that a node alive now is dead after time ``t`` is
``1 - exp(-t / t_life)`` where ``t_life`` is the mean lifetime.  Algorithm 1
uses exactly this to size its dead-share estimate ``d``.
"""

from __future__ import annotations

import math

from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class LifetimeModel:
    """Interface: draw remaining lifetimes and expose the death CDF."""

    def draw_lifetime(self, rng: RandomSource) -> float:
        """Sample a fresh node's total lifetime."""
        raise NotImplementedError

    def death_probability(self, duration: float) -> float:
        """P[node dies within ``duration``], memorylessness permitting."""
        raise NotImplementedError


class ExponentialLifetime(LifetimeModel):
    """Exponentially distributed lifetimes with mean ``mean_lifetime``.

    Memorylessness makes this the natural model for Monte-Carlo churn: the
    probability of dying in any holding period of length ``t_h`` is the same
    ``1 - exp(-t_h / mean)`` regardless of the node's current age.
    """

    def __init__(self, mean_lifetime: float) -> None:
        check_positive(mean_lifetime, "mean_lifetime")
        self.mean_lifetime = float(mean_lifetime)

    def draw_lifetime(self, rng: RandomSource) -> float:
        return rng.exponential(self.mean_lifetime)

    def death_probability(self, duration: float) -> float:
        check_positive(duration, "duration", allow_zero=True)
        return 1.0 - math.exp(-duration / self.mean_lifetime)

    def __repr__(self) -> str:
        return f"ExponentialLifetime(mean={self.mean_lifetime})"


def death_probability(duration: float, mean_lifetime: float) -> float:
    """Convenience: ``1 - exp(-duration / mean_lifetime)`` (Algorithm 1 line 2)."""
    check_positive(mean_lifetime, "mean_lifetime")
    check_positive(duration, "duration", allow_zero=True)
    return 1.0 - math.exp(-duration / mean_lifetime)
