"""Choosing ``(k, l)`` for a target resilience (Fig. 6 methodology).

The paper plots, per malicious rate ``p``, the attack resilience
``R = Rr = Rd`` *and* the number of nodes the configuration consumes
(Fig. 6(b)/(d)).  The cost curves start near 1 and rise steeply with ``p``,
which implies the sender picks the **cheapest** configuration that meets a
target resilience, falling back to the best achievable configuration when
the node budget ``N`` cannot meet the target.  That is exactly what
:func:`plan_configuration` does:

1. grid-search ``k`` and ``l`` under ``k * l <= N``;
2. among configurations with ``min(Rr, Rd) >= target`` pick the smallest
   ``k * l`` (ties: higher worst-case resilience);
3. if none qualifies, pick the configuration maximizing ``min(Rr, Rd)``
   (ties: cheaper).

The search is vectorised with numpy; the 64 x 2048 grid per ``p`` evaluates
in a few milliseconds.  A sweep asks for the same few decisions over and
over (fig7: 132 multipath points, 11 distinct plans per scheme), so the
*decision* is memoised — never the grids, which are 2 MB per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.analysis import (
    eq1_release,
    eq2_disjoint_drop,
    eq3_joint_drop,
)
from repro.util.validation import check_positive_int, check_probability

DEFAULT_TARGET = 0.999
#: The sender plans its structure for an *assumed* adversary; planning for
#: p = 0 would yield k = l = 1 (no redundancy at all), which makes the churn
#: panels non-monotone at the origin for a silly reason.  The churn and
#: availability kinds (``availability`` and ``epoch_availability``) plan at
#: ``max(p, floor)``, matching how a deployment would size its paths.
PLANNING_FLOOR = 0.05
DEFAULT_MAX_REPLICATION = 64
DEFAULT_MAX_PATH_LENGTH = 2048

#: Planner decisions kept by the memo.  Each is one small frozen
#: :class:`PlannedConfiguration`; the fig6a-d, fig7, fig8, heavy-churn
#: and availability sweeps together ask for 88 distinct ones.
PLAN_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PlannedConfiguration:
    """A planner decision for one (scheme, p, N) point."""

    scheme: str
    malicious_rate: float
    replication: int
    path_length: int
    release_resilience: float
    drop_resilience: float
    node_budget: int
    target: float
    meets_target: bool

    @property
    def cost(self) -> int:
        """Distinct DHT nodes consumed (the C axis of Fig. 6(b)/(d))."""
        return self.replication * self.path_length

    @property
    def worst_resilience(self) -> float:
        """min(Rr, Rd) — the R axis of Fig. 6(a)/(c)."""
        return min(self.release_resilience, self.drop_resilience)


def search_grid(
    scheme: str,
    p: float,
    node_budget: int,
    max_replication: int = DEFAULT_MAX_REPLICATION,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
):
    """The ``(k, l)`` grid the planner and the Pareto frontier search.

    Returns ``(k, l, release, drop)``: ``k`` a column and ``l`` a row of
    candidate values, and Eqs. 1-3 over every pair.  Cells with
    ``k * l > node_budget`` are included; callers mask them.
    """
    if scheme == "disjoint":
        drop_equation = eq2_disjoint_drop
    elif scheme == "joint":
        drop_equation = eq3_joint_drop
    else:
        raise ValueError(f"unknown multipath scheme {scheme!r}")
    k = np.arange(1, min(max_replication, node_budget) + 1)[:, None]
    l = np.arange(1, min(max_path_length, node_budget) + 1)[None, :]
    k_float, l_float = k.astype(float), l.astype(float)
    return (
        k,
        l,
        eq1_release(p, k_float, l_float),
        drop_equation(p, k_float, l_float),
    )


def plan_configuration(
    scheme: str,
    malicious_rate: float,
    node_budget: int,
    target: float = DEFAULT_TARGET,
    max_replication: int = DEFAULT_MAX_REPLICATION,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
) -> PlannedConfiguration:
    """Plan ``(k, l)`` for one scheme at one malicious rate.

    ``scheme`` is ``"central"`` (alias ``"centralized"``), ``"disjoint"``
    or ``"joint"``.  The centralized scheme has no parameters — it always
    returns ``k = l = 1``.

    Arguments are validated on every call; the multipath grid search
    behind a valid call runs once per distinct argument tuple.
    """
    p = check_probability(malicious_rate, "malicious_rate")
    check_positive_int(node_budget, "node_budget")
    target = check_probability(target, "target")

    if scheme in ("central", "centralized"):
        baseline = 1.0 - p
        return PlannedConfiguration(
            scheme="central",
            malicious_rate=p,
            replication=1,
            path_length=1,
            release_resilience=baseline,
            drop_resilience=baseline,
            node_budget=node_budget,
            target=target,
            meets_target=baseline >= target,
        )
    return _plan_multipath(
        scheme, p, node_budget, target, max_replication, max_path_length
    )


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan_multipath(
    scheme: str,
    p: float,
    node_budget: int,
    target: float,
    max_replication: int,
    max_path_length: int,
) -> PlannedConfiguration:
    """The grid search of :func:`plan_configuration`, on validated arguments."""
    k, l, release, drop = search_grid(
        scheme, p, node_budget, max_replication, max_path_length
    )
    cost = k * l
    affordable = cost <= node_budget
    worst = np.minimum(release, drop)
    worst = np.where(affordable, worst, -1.0)

    feasible = worst >= target
    if feasible.any():
        # Cheapest feasible configuration; ties broken by higher resilience.
        candidate_cost = np.where(feasible, cost, np.iinfo(np.int64).max)
        best_cost = candidate_cost.min()
        tied = (candidate_cost == best_cost)
        tie_worst = np.where(tied, worst, -1.0)
        flat_index = int(np.argmax(tie_worst))
        meets = True
    else:
        # No configuration reaches the target: maximize worst-case
        # resilience, breaking ties toward cheaper configurations.
        best_worst = worst.max()
        tied = np.isclose(worst, best_worst) & affordable
        tie_cost = np.where(tied, cost, np.iinfo(np.int64).max)
        flat_index = int(np.argmin(tie_cost))
        meets = False

    k_index, l_index = np.unravel_index(flat_index, worst.shape)
    return PlannedConfiguration(
        scheme=scheme,
        malicious_rate=p,
        replication=int(k[k_index, 0]),
        path_length=int(l[0, l_index]),
        release_resilience=float(release[k_index, l_index]),
        drop_resilience=float(drop[k_index, l_index]),
        node_budget=node_budget,
        target=target,
        meets_target=meets,
    )
