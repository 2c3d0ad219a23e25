"""Fig. 7 — resilience under churn for α = T / t_life in {1, 2, 3, 5}.

For each (α, p) the four schemes run through the epoch churn model
(:mod:`repro.experiments.churn_model`): the multipath schemes use the
configuration the no-churn planner would have picked (the sender plans
without knowing the churn level — exactly the failure mode §III-D fixes),
and the key-share scheme plans with Algorithm 1, which *does* model churn.

This module holds the engine batch units; the ``churn_resilience`` and
``share_cost`` scenario kinds (:mod:`repro.scenarios.runners`) plan, pick
one and route it through the
:class:`~repro.experiments.engine.TrialEngine` batch mode: the default
single-batch configuration reproduces the historical per-point generator
bit-for-bit, while ``jobs``/``tolerance``/``batch_size`` unlock process
parallelism and adaptive early stopping for large sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.churn_model import (
    simulate_centralized_counts,
    simulate_key_share_counts,
    simulate_multipath_counts,
)

# Batch callables are frozen dataclasses (not lambdas) registered in
# repro.backends.wire.UNITS, so the pool and the TCP workers receive them as
# data; every parameter a batch needs is bound at construction time.


@dataclass(frozen=True)
class CentralizedChurnBatch:
    """Engine batch unit for the centralized scheme under churn."""

    malicious_rate: float
    alpha: float

    def __call__(self, generator, count):
        return simulate_centralized_counts(
            self.malicious_rate, self.alpha, count, generator
        )


@dataclass(frozen=True)
class MultipathChurnBatch:
    """Engine batch unit for the disjoint/joint schemes under churn."""

    malicious_rate: float
    alpha: float
    replication: int
    path_length: int
    joint: bool

    def __call__(self, generator, count):
        return simulate_multipath_counts(
            self.malicious_rate,
            self.alpha,
            self.replication,
            self.path_length,
            count,
            generator,
            self.joint,
        )


@dataclass(frozen=True)
class KeyShareChurnBatch:
    """Engine batch unit for key-share routing under churn.

    ``malicious_rate=None`` evaluates the plan at its own assumed rate
    (the Fig. 8 usage); a value re-evaluates the capture/starvation tails
    at the actual rate (the Fig. 7 planning-floor usage).
    """

    plan: object
    alpha: float
    malicious_rate: Optional[float] = None

    def __call__(self, generator, count):
        return simulate_key_share_counts(
            self.plan, self.alpha, count, generator, malicious_rate=self.malicious_rate
        )
