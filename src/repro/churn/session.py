"""Short-term availability (transient departure) models.

Distinct from death: an unavailable node keeps its identity and storage but
cannot exchange messages.  The paper notes this blocks on-time release when
a holder happens to be offline at its forwarding instant; the experiments
package exposes it as an optional extension axis.
"""

from __future__ import annotations

from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class AvailabilityModel:
    """Interface: is a node online at a given instant / draw session lengths."""

    def is_available(self, rng: RandomSource) -> bool:
        """Sample instantaneous availability."""
        raise NotImplementedError

    def draw_online_duration(self, rng: RandomSource) -> float:
        raise NotImplementedError

    def draw_offline_duration(self, rng: RandomSource) -> float:
        raise NotImplementedError


class AlwaysAvailable(AvailabilityModel):
    """No transient churn — the paper's main-line assumption."""

    def is_available(self, rng: RandomSource) -> bool:
        return True

    def draw_online_duration(self, rng: RandomSource) -> float:
        return float("inf")

    def draw_offline_duration(self, rng: RandomSource) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "AlwaysAvailable()"


class IntermittentAvailability(AvailabilityModel):
    """Alternating exponential online/offline sessions.

    ``uptime_fraction`` is the long-run fraction of time online; a node's
    instantaneous availability equals it by renewal-reward.
    """

    def __init__(
        self,
        mean_online: float,
        mean_offline: float,
    ) -> None:
        check_positive(mean_online, "mean_online")
        check_positive(mean_offline, "mean_offline", allow_zero=True)
        self.mean_online = float(mean_online)
        self.mean_offline = float(mean_offline)

    @property
    def uptime_fraction(self) -> float:
        total = self.mean_online + self.mean_offline
        return self.mean_online / total if total > 0 else 1.0

    def is_available(self, rng: RandomSource) -> bool:
        return rng.bernoulli(self.uptime_fraction)

    def draw_online_duration(self, rng: RandomSource) -> float:
        return rng.exponential(self.mean_online)

    def draw_offline_duration(self, rng: RandomSource) -> float:
        if self.mean_offline == 0:
            return 0.0
        return rng.exponential(self.mean_offline)

    def __repr__(self) -> str:
        return (
            f"IntermittentAvailability(online={self.mean_online}, "
            f"offline={self.mean_offline})"
        )
