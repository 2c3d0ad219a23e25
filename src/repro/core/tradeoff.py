"""The Rr / Rd trade-off frontier (paper §III-C).

Lemma 1 guarantees ``Rr + Rd > 1`` for the node-joint scheme when
``p < 0.5``, and the paper notes the *tradeoff between Rr and Rd* "helps to
design a highly attack-resilient system".  This module makes that concrete:
for a fixed node budget it sweeps the achievable (Rr, Rd) pairs and
extracts the Pareto frontier, letting a sender bias the structure toward
whichever attack worries her more (e.g. a news embargo fears release-ahead;
an escrow fears drops).

Used by ``repro plan --frontier`` and ``examples/embargoed_story.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.planner import search_grid
from repro.util.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal (k, l) configuration."""

    replication: int
    path_length: int
    release_resilience: float
    drop_resilience: float

    @property
    def cost(self) -> int:
        return self.replication * self.path_length


def pareto_frontier(
    scheme: str, malicious_rate: float, node_budget: int
) -> List[FrontierPoint]:
    """All Pareto-optimal (Rr, Rd) configurations under the budget.

    The candidates are the planner's own :func:`~repro.core.planner.search_grid`,
    so whatever :func:`~repro.core.planner.plan_configuration` picks is on
    or under this frontier.  A configuration is kept iff no other
    affordable configuration is at least as good on both axes and
    strictly better on one.  The result is sorted by increasing ``Rr``
    (hence decreasing ``Rd``).
    """
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive_int(node_budget, "node_budget")
    k, l, release, drop = search_grid(scheme, p, node_budget)
    cost = k * l
    k_index, l_index = np.nonzero(cost <= node_budget)
    candidates = list(
        zip(
            release[k_index, l_index].tolist(),
            drop[k_index, l_index].tolist(),
            k[k_index, 0].tolist(),
            l[0, l_index].tolist(),
            cost[k_index, l_index].tolist(),
        )
    )
    # Sort by Rr descending, then sweep keeping strictly improving Rd —
    # the classic O(n log n) Pareto extraction; ties broken toward lower
    # cost so the frontier is also cost-minimal per point.
    candidates.sort(key=lambda c: (-c[0], -c[1], c[4]))
    frontier: List[FrontierPoint] = []
    best_drop = -1.0
    epsilon = 1e-12
    for rel, drp, replication, path_length, _cost in candidates:
        if drp > best_drop + epsilon:
            best_drop = drp
            frontier.append(
                FrontierPoint(
                    replication=replication,
                    path_length=path_length,
                    release_resilience=rel,
                    drop_resilience=drp,
                )
            )
    frontier.reverse()  # increasing Rr
    return frontier


def biased_configuration(
    scheme: str,
    malicious_rate: float,
    node_budget: int,
    release_weight: float = 0.5,
) -> FrontierPoint:
    """Pick the frontier point maximizing a weighted mix of Rr and Rd.

    ``release_weight = 1`` optimizes purely for release-ahead resilience
    (embargo use case); ``0`` purely for drop resilience (escrow use case);
    ``0.5`` weighs the two attacks equally.
    """
    weight = check_probability(release_weight, "release_weight")
    frontier = pareto_frontier(scheme, malicious_rate, node_budget)
    if not frontier:
        raise RuntimeError("empty frontier — budget too small")
    return max(
        frontier,
        key=lambda point: weight * point.release_resilience
        + (1.0 - weight) * point.drop_resilience,
    )
