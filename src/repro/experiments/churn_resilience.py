"""Fig. 7 — resilience under churn for α = T / t_life in {1, 2, 3, 5}.

For each (α, p) the four schemes run through the epoch churn model
(:mod:`repro.experiments.churn_model`): the multipath schemes use the
configuration the no-churn planner would have picked (the sender plans
without knowing the churn level — exactly the failure mode §III-D fixes),
and the key-share scheme plans with Algorithm 1, which *does* model churn.

Each (scheme, α, p) point is one vectorised Monte Carlo routed through the
:class:`~repro.experiments.engine.TrialEngine` batch mode: the default
single-batch configuration reproduces the historical per-point generator
bit-for-bit, while ``jobs``/``tolerance``/``batch_size`` unlock process
parallelism and adaptive early stopping for large sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.planner import plan_configuration
from repro.core.schemes.keyshare import plan_share_scheme
from repro.experiments.churn_model import (
    ChurnOutcome,
    outcome_from_result,
    simulate_centralized_counts,
    simulate_key_share_counts,
    simulate_multipath_counts,
)
from repro.experiments.engine import TrialEngine

# The sender plans its structure for an *assumed* adversary; planning for
# p = 0 would yield k = l = 1 (no redundancy at all), which makes the churn
# panels non-monotone at the origin for a silly reason.  A small planning
# floor keeps redundancy provisioned, matching how a deployment would size
# its paths.
PLANNING_FLOOR = 0.05


@dataclass(frozen=True)
class ChurnPoint:
    """One (scheme, α, p) point of Fig. 7."""

    scheme: str
    alpha: float
    malicious_rate: float
    outcome: ChurnOutcome
    replication: int
    path_length: int

    @property
    def resilience(self) -> float:
        """The R axis: the worse of the two attack resiliences."""
        return self.outcome.worst


# Batch callables are module-level frozen dataclasses (not lambdas) so a
# shared sweep pool can ship them to workers by pickle; every parameter a
# batch needs is bound at construction time.


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


def churn_resilience_point(
    scheme: str,
    alpha: float,
    malicious_rate: float,
    population_size: int = 10000,
    trials: int = 1000,
    seed: int = 2017,
    engine: Optional[TrialEngine] = None,
    batch_size: Optional[int] = None,
) -> ChurnPoint:
    """One (scheme, α, p) point of Fig. 7 — the sweepable unit."""
    if engine is None:
        engine = TrialEngine()
    p = malicious_rate
    label = f"fig7-{scheme}-a{alpha}-p{p}"
    planning_rate = max(p, PLANNING_FLOOR)
    if scheme == "central":
        k = length = 1
        batch = CentralizedChurnBatch(p, alpha)
    elif scheme in ("disjoint", "joint"):
        configuration = plan_configuration(scheme, planning_rate, population_size)
        k = configuration.replication
        length = configuration.path_length
        batch = MultipathChurnBatch(p, alpha, k, length, joint=(scheme == "joint"))
    elif scheme == "share":
        # Algorithm 1 plans with the churn level (T = α, λ = 1).
        plan = plan_share_scheme(
            planning_rate,
            population_size,
            emerging_time=alpha,
            mean_lifetime=1.0,
        )
        k = plan.replication
        length = plan.path_length
        batch = KeyShareChurnBatch(plan, alpha, malicious_rate=p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    result = engine.run_batched(
        batch,
        trials=trials,
        seed=seed,
        label=label,
        channels=2,
        batch_size=batch_size,
    )
    return ChurnPoint(
        scheme=scheme,
        alpha=alpha,
        malicious_rate=p,
        outcome=outcome_from_result(result),
        replication=k,
        path_length=length,
    )
