"""The epoch churn model behind Fig. 7 (vectorised Monte Carlo).

Model (DESIGN.md §5): the emerging period is divided into the ``l`` holding
periods; during each period every holder dies independently with
``p_dead = 1 - exp(-α / l)`` where ``α = T / t_life``.

Scheme-specific consequences:

- **centralized** — no repair; any death before ``tr`` loses the key
  (drop); release-ahead is still just "the holder is malicious".
- **multipath (disjoint/joint)** — layer keys sit on column replicas from
  ``ts`` until the column's period, so column ``j`` endures ``j`` periods
  of churn.  A death with a surviving same-column replica is repaired onto
  a fresh node (malicious with probability ``p``): the *exposure set* of
  nodes that ever knew the column key grows by one — the §III-D effect that
  motivates key-share routing.  All ``k`` replicas dying within one period
  leaves no repair source: the column key is lost (drop by churn).
  Malicious forwarding blocks keep their no-churn structure (every row cut
  for disjoint / a full column for joint) with occupants re-drawn by
  repairs.
- **key-share** — nothing is stored across periods and hops are re-resolved
  ids, so only single-period death matters: per column, ``d`` of the ``n``
  share carriers die, and the ``(m, n)`` threshold absorbs them.  Release
  telescopes from any column where the adversary pools ``m`` shares.

Everything is numpy-vectorised across trials; a 1,000-trial sweep over the
full Fig. 7 grid runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.schemes.keyshare import SharePlan
from repro.util.validation import check_positive, check_positive_int, check_probability


@dataclass(frozen=True)
class ChurnOutcome:
    """Monte-Carlo resilience estimates for one (scheme, p, α) point."""

    release_resilience: float
    drop_resilience: float
    trials: int

    @property
    def worst(self) -> float:
        return min(self.release_resilience, self.drop_resilience)


def _death_probability(alpha: float, path_length: int) -> float:
    return 1.0 - math.exp(-alpha / path_length)


def outcome_from_counts(
    release_successes: int, drop_successes: int, trials: int
) -> ChurnOutcome:
    """Resilience from attack-success counts: the one aggregation rule."""
    return ChurnOutcome(
        release_resilience=1.0 - release_successes / trials,
        drop_resilience=1.0 - drop_successes / trials,
        trials=trials,
    )


def outcome_from_result(result) -> ChurnOutcome:
    """A two-channel engine result (release, drop attack successes) → outcome.

    The adapter every engine-batched point unit (Fig. 7, Fig. 8, the
    availability extension) uses to turn a
    :class:`~repro.experiments.engine.EngineResult` into the figure's
    resilience pair through the same aggregation rule the direct
    ``simulate_*`` wrappers apply.
    """
    release, drop = result.estimates
    return outcome_from_counts(
        release.successes, drop.successes, release.trials
    )


def simulate_centralized_counts(
    malicious_rate: float,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
) -> Tuple[int, int]:
    """Attack-success counts for the centralized scheme (engine batch unit)."""
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive(alpha, "alpha", allow_zero=True)
    check_positive_int(trials, "trials")
    malicious = rng.random(trials) < p
    survives = rng.random(trials) < math.exp(-alpha)
    release_success = malicious
    drop_success = malicious | ~survives
    return int(release_success.sum()), int(drop_success.sum())


def simulate_centralized(
    malicious_rate: float,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
) -> ChurnOutcome:
    """Single holder, no repair: survival of the whole period required."""
    release, drop = simulate_centralized_counts(malicious_rate, alpha, trials, rng)
    return outcome_from_counts(release, drop, trials)


def simulate_multipath_counts(
    malicious_rate: float,
    alpha: float,
    replication: int,
    path_length: int,
    trials: int,
    rng: np.random.Generator,
    joint: bool,
) -> Tuple[int, int]:
    """Attack-success counts for the multipath schemes (engine batch unit)."""
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive(alpha, "alpha", allow_zero=True)
    k = check_positive_int(replication, "replication")
    l = check_positive_int(path_length, "path_length")
    check_positive_int(trials, "trials")
    p_dead = _death_probability(alpha, l)

    columns = np.arange(1, l + 1)  # column j endures j periods of churn

    # --- release-ahead: exposure growth -------------------------------------
    # Repairs per column over its storage duration: each of the k slots is
    # re-drawn on death, Binomial(j, p_dead) deaths per slot (memoryless
    # exponential lifetimes make per-period deaths independent).
    repairs = rng.binomial(
        n=np.broadcast_to(columns * k, (trials, l)), p=p_dead
    )
    exposure = k + repairs  # nodes that ever knew the column key
    column_captured = rng.random((trials, l)) < (1.0 - (1.0 - p) ** exposure)
    release_success = column_captured.all(axis=1)

    # --- drop: churn loss + malicious blocking -------------------------------
    # Column key lost iff all k replicas die within one period (no repair
    # source), any of the j periods the column stores its key.
    loss_per_period = p_dead ** k
    column_lost_probability = 1.0 - (1.0 - loss_per_period) ** columns
    column_lost = rng.random((trials, l)) < column_lost_probability
    churn_lost = column_lost.any(axis=1)

    if joint:
        # A full column of malicious occupants at forwarding time.
        blocked_probability = 1.0 - (1.0 - p ** k) ** l
        maliciously_blocked = rng.random(trials) < blocked_probability
    else:
        # Every row must be cut; occupants are re-drawn by repairs but the
        # marginal malicious rate stays p.
        row_cut = 1.0 - (1.0 - p) ** l
        maliciously_blocked = rng.random(trials) < row_cut ** k
    drop_success = churn_lost | maliciously_blocked

    return int(release_success.sum()), int(drop_success.sum())


def simulate_multipath(
    malicious_rate: float,
    alpha: float,
    replication: int,
    path_length: int,
    trials: int,
    rng: np.random.Generator,
    joint: bool,
) -> ChurnOutcome:
    """Epoch Monte Carlo for the node-disjoint / node-joint schemes."""
    release, drop = simulate_multipath_counts(
        malicious_rate, alpha, replication, path_length, trials, rng, joint
    )
    return outcome_from_counts(release, drop, trials)


def simulate_key_share_counts(
    plan: SharePlan,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
    malicious_rate: Optional[float] = None,
) -> Tuple[int, int]:
    """Attack-success counts for key-share routing (engine batch unit).

    The sampled model is Algorithm 1's own (see the keyshare module
    docstring and DESIGN.md §5): per column ``j`` the *cumulative*
    release/drop success rates ``Pr_j`` / ``Pd_j`` accumulate the
    binomial share-capture and share-starvation tails (the paper's lines
    9-11), and the attack aggregates over the ``k`` replicated onion
    paths — release-ahead needs every column captured on at least one
    path, a drop needs some column starved on all ``k`` paths.  Per-column
    events are sampled per path and column; the share-capture/starvation
    tails are re-evaluated against the *actual* malicious rate when it
    differs from the plan's assumed one (planning floor).
    """
    from repro.core.schemes.keyshare import cumulative_success_rates

    check_positive(alpha, "alpha", allow_zero=True)
    check_positive_int(trials, "trials")
    l = plan.path_length
    k = plan.replication
    if malicious_rate is not None:
        check_probability(malicious_rate, "malicious_rate")
    release_rates, drop_rates = cumulative_success_rates(plan, malicious_rate)
    release_rates = np.asarray(release_rates)  # len l, cumulative per column
    drop_rates = np.asarray(drop_rates)

    # Per (trial, column, path) Bernoulli draws at the cumulative rates.
    captured = rng.random((trials, l, k)) < release_rates[None, :, None]
    starved = rng.random((trials, l, k)) < drop_rates[None, :, None]

    release_success = captured.any(axis=2).all(axis=1)
    drop_success = starved.all(axis=2).any(axis=1)

    return int(release_success.sum()), int(drop_success.sum())


def simulate_key_share(
    plan: SharePlan,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
    malicious_rate: Optional[float] = None,
) -> ChurnOutcome:
    """Epoch Monte Carlo for key-share routing, mirroring Algorithm 1.

    See :func:`simulate_key_share_counts` for the sampled model; this
    wrapper converts its attack-success counts into resiliences.
    """
    release, drop = simulate_key_share_counts(
        plan, alpha, trials, rng, malicious_rate
    )
    return outcome_from_counts(release, drop, trials)
