"""Fig. 8 — key-share routing cost: resilience vs available nodes N.

Fixes α = 3 (the paper's setting) and sweeps the node budget
N ∈ {100, 1000, 5000, 10000}: Algorithm 1 re-plans ``(m, n)`` for each
budget and the epoch Monte Carlo measures the resulting resilience.  The
expected shape: 10,000 and 5,000 nearly coincide, 1,000 holds R > 0.95 to
p ≈ 0.26, and even 100 nodes keep R > 0.9 to p ≈ 0.14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.schemes.keyshare import SharePlan, plan_share_scheme
from repro.experiments.churn_model import ChurnOutcome, outcome_from_result
from repro.experiments.churn_resilience import KeyShareChurnBatch
from repro.experiments.engine import TrialEngine

DEFAULT_ALPHA = 3.0


@dataclass(frozen=True)
class CostPoint:
    """One (N, p) point of Fig. 8."""

    node_budget: int
    malicious_rate: float
    alpha: float
    plan: SharePlan
    outcome: ChurnOutcome

    @property
    def resilience(self) -> float:
        return self.outcome.worst

    @property
    def analytic_resilience(self) -> float:
        """Algorithm 1's own (Rr, Rd) prediction for the same plan."""
        return self.plan.worst_resilience


def share_cost_point(
    node_budget: int,
    malicious_rate: float,
    alpha: float = DEFAULT_ALPHA,
    trials: int = 1000,
    seed: int = 2017,
    engine: Optional[TrialEngine] = None,
    batch_size: Optional[int] = None,
) -> CostPoint:
    """One (N, p) point of Fig. 8 — the sweepable unit."""
    if engine is None:
        engine = TrialEngine()
    plan = plan_share_scheme(
        malicious_rate, node_budget, emerging_time=alpha, mean_lifetime=1.0
    )
    result = engine.run_batched(
        KeyShareChurnBatch(plan, alpha),
        trials=trials,
        seed=seed,
        label=f"fig8-N{node_budget}-p{malicious_rate}",
        channels=2,
        batch_size=batch_size,
    )
    return CostPoint(
        node_budget=node_budget,
        malicious_rate=malicious_rate,
        alpha=alpha,
        plan=plan,
        outcome=outcome_from_result(result),
    )
