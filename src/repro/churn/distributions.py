"""Alternative lifetime distributions (sensitivity analysis).

The paper (following Bhagwan et al.) assumes exponential node lifetimes —
the assumption baked into Algorithm 1's ``p_dead = 1 - e^{-th/λ}``.
Measurement studies of deployed P2P systems (e.g. Stutzbach & Rejaie,
cited by the paper for churn) repeatedly find *heavier-tailed* session
lengths.  These models let the experiments ask how sensitive the schemes
are to that assumption while holding the mean lifetime fixed:

- :class:`WeibullLifetime` — shape < 1 gives the heavy tail measurements
  report ("many die young, survivors live long");
- :class:`ParetoLifetime` — the classic power-law alternative;
- :class:`FixedLifetime` — degenerate deterministic lifetimes, the
  light-tail extreme, useful as a bracketing baseline.

Unlike the exponential, these are *not* memoryless: a node's chance of
dying in the next period depends on its age.
"""

from __future__ import annotations

import math

from repro.churn.lifetime import LifetimeModel
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class WeibullLifetime(LifetimeModel):
    """Weibull lifetimes with a given mean and shape.

    ``shape = 1`` degenerates to the exponential; ``shape < 1`` is
    heavy-tailed (high infant mortality), ``shape > 1`` wear-out.
    """

    def __init__(self, mean_lifetime: float, shape: float = 0.6) -> None:
        check_positive(mean_lifetime, "mean_lifetime")
        check_positive(shape, "shape")
        self.mean_lifetime = float(mean_lifetime)
        self.shape = float(shape)
        # Scale chosen so the mean is exactly mean_lifetime:
        # E[X] = scale * Gamma(1 + 1/shape).
        self.scale = mean_lifetime / math.gamma(1.0 + 1.0 / shape)

    def draw_lifetime(self, rng: RandomSource) -> float:
        # Inverse-CDF sampling: X = scale * (-ln U)^(1/shape).
        uniform = max(rng.random(), 1e-300)
        return self.scale * (-math.log(uniform)) ** (1.0 / self.shape)

    def death_probability(self, duration: float) -> float:
        """Unconditional P[X <= duration] (a fresh node)."""
        check_positive(duration, "duration", allow_zero=True)
        return 1.0 - math.exp(-((duration / self.scale) ** self.shape))

    def __repr__(self) -> str:
        return f"WeibullLifetime(mean={self.mean_lifetime}, shape={self.shape})"


class ParetoLifetime(LifetimeModel):
    """Pareto (power-law) lifetimes with a given mean.

    ``X = x_min * U^(-1/alpha)`` with tail index ``alpha > 1`` so the mean
    exists; ``x_min = mean * (alpha - 1) / alpha``.
    """

    def __init__(self, mean_lifetime: float, tail_index: float = 1.5) -> None:
        check_positive(mean_lifetime, "mean_lifetime")
        if tail_index <= 1.0:
            raise ValueError(
                f"tail_index must exceed 1 for a finite mean, got {tail_index}"
            )
        self.mean_lifetime = float(mean_lifetime)
        self.tail_index = float(tail_index)
        self.minimum = mean_lifetime * (tail_index - 1.0) / tail_index

    def draw_lifetime(self, rng: RandomSource) -> float:
        uniform = max(rng.random(), 1e-300)
        return self.minimum * uniform ** (-1.0 / self.tail_index)

    def death_probability(self, duration: float) -> float:
        check_positive(duration, "duration", allow_zero=True)
        if duration <= self.minimum:
            return 0.0
        return 1.0 - (self.minimum / duration) ** self.tail_index

    def __repr__(self) -> str:
        return (
            f"ParetoLifetime(mean={self.mean_lifetime}, "
            f"tail_index={self.tail_index})"
        )


class FixedLifetime(LifetimeModel):
    """Every node lives exactly ``mean_lifetime`` — the light-tail extreme."""

    def __init__(self, mean_lifetime: float) -> None:
        check_positive(mean_lifetime, "mean_lifetime")
        self.mean_lifetime = float(mean_lifetime)

    def draw_lifetime(self, rng: RandomSource) -> float:
        return self.mean_lifetime

    def death_probability(self, duration: float) -> float:
        check_positive(duration, "duration", allow_zero=True)
        return 1.0 if duration >= self.mean_lifetime else 0.0

    def __repr__(self) -> str:
        return f"FixedLifetime(mean={self.mean_lifetime})"
