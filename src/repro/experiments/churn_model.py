"""The epoch churn model behind Fig. 7 and Fig. 8, in closed form.

Model (DESIGN.md §5): the emerging period is divided into the ``l`` holding
periods; during each period every holder dies independently with
``q = 1 - exp(-α / l)`` where ``α = T / t_life``.

Scheme-specific consequences:

- **centralized** — no repair; any death before ``tr`` loses the key
  (drop); release-ahead is still just "the holder is malicious"::

      Rr = 1 - p        Rd = (1 - p) e^(-α)

- **multipath (disjoint/joint)** — layer keys sit on column replicas from
  ``ts`` until the column's period, so column ``j`` endures ``j`` periods
  of churn.  A death with a surviving same-column replica is repaired onto
  a fresh node (malicious with probability ``p``): the *exposure set* of
  nodes that ever knew the column key grows by one — the §III-D effect that
  motivates key-share routing.  All ``k`` replicas dying within one period
  leaves no repair source: the column key is lost (drop by churn).
  Malicious forwarding blocks keep their no-churn structure (Eq. 2 / Eq. 3)
  with occupants re-drawn by repairs::

      Rr = 1 - Π_{j=1..l} [1 - (1-p)^k (1 - p q)^(jk)]
      Rd = (1 - q^k)^(l(l+1)/2) · (Eq. 2 or Eq. 3)

- **key-share** — nothing is stored across periods and hops are re-resolved
  ids, so only single-period death matters: per column, ``d`` of the ``n``
  share carriers die, and the ``(m, n)`` threshold absorbs them.  The
  per-column cumulative rates ``(r_j, d_j)`` are Algorithm 1's own
  (:func:`~repro.core.schemes.keyshare.cumulative_success_rates`, at the
  actual ``p``), aggregated over the ``k`` paths by its lines 14-18::

      Rr = 1 - Π_j (1 - (1 - r_j)^k)      Rd = Π_j (1 - d_j^k)

Every event these forms multiply is independent of the others, so they are
the exact values a Monte Carlo of the model estimates (the tests hold the
samplers to them); a point costs arithmetic, not trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.analysis import eq2_disjoint_drop, eq3_joint_drop
from repro.core.schemes.keyshare import (
    SharePlan,
    cumulative_success_rates,
    path_resilience,
)
from repro.util.validation import check_positive, check_positive_int, check_probability


@dataclass(frozen=True)
class ChurnOutcome:
    """Resilience for one (scheme, p, α) point; ``trials`` is 0 when exact."""

    release_resilience: float
    drop_resilience: float
    trials: int = 0

    @property
    def worst(self) -> float:
        return min(self.release_resilience, self.drop_resilience)


def outcome_from_result(result) -> ChurnOutcome:
    """A two-channel engine result (release, drop attack successes) → outcome.

    The adapter the ``epoch_availability`` kind uses to turn a
    :class:`~repro.experiments.engine.EngineResult` into a resilience pair.
    """
    release, drop = result.estimates
    trials = release.trials
    return ChurnOutcome(
        release_resilience=1.0 - release.successes / trials,
        drop_resilience=1.0 - drop.successes / trials,
        trials=trials,
    )


def centralized_churn(malicious_rate: float, alpha: float) -> ChurnOutcome:
    """Single holder, no repair: survival of the whole period required."""
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive(alpha, "alpha", allow_zero=True)
    return ChurnOutcome(1.0 - p, (1.0 - p) * math.exp(-alpha))


def multipath_churn(
    malicious_rate: float,
    alpha: float,
    replication: int,
    path_length: int,
    joint: bool,
) -> ChurnOutcome:
    """The node-disjoint / node-joint schemes under churn with repair."""
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive(alpha, "alpha", allow_zero=True)
    k = check_positive_int(replication, "replication")
    l = check_positive_int(path_length, "path_length")
    q = 1.0 - math.exp(-alpha / l)
    # Column j's key was known to k + Bin(jk, q) nodes (one per repair).
    columns = np.arange(1, l + 1)
    captured = 1.0 - (1.0 - p) ** k * (1.0 - p * q) ** (columns * k)
    # No column may lose all k replicas in any of its j periods.
    survives = (1.0 - q ** k) ** (l * (l + 1) // 2)
    unblocked = eq3_joint_drop(p, k, l) if joint else eq2_disjoint_drop(p, k, l)
    return ChurnOutcome(1.0 - float(np.prod(captured)), survives * unblocked)


def key_share_churn(
    plan: SharePlan, malicious_rate: Optional[float] = None
) -> ChurnOutcome:
    """Key-share routing under churn: Algorithm 1's rates and aggregation.

    ``malicious_rate=None`` evaluates the plan at its own assumed rate
    (Fig. 8, where this equals the plan's ``release/drop_resilience`` bit
    for bit); a value re-evaluates the capture/starvation tails at the
    actual rate (Fig. 7, where the plan used the planning floor).
    """
    release_rates, drop_rates = cumulative_success_rates(plan, malicious_rate)
    return ChurnOutcome(
        *path_resilience(release_rates, drop_rates, plan.replication)
    )
