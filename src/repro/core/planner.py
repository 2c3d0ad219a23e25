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

from repro.core.analysis import ResiliencePair
from repro.util.validation import check_positive_int, check_probability

DEFAULT_TARGET = 0.999
#: The sender plans its structure for an *assumed* adversary; planning for
#: p = 0 would yield k = l = 1 (no redundancy at all), which makes the churn
#: panels non-monotone at the origin for a silly reason.  The churn and
#: availability kinds (static and epoch lanes) plan at ``max(p, floor)``,
#: matching how a deployment would size its paths.
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

    @property
    def resilience_pair(self) -> ResiliencePair:
        return ResiliencePair(
            release=self.release_resilience, drop=self.drop_resilience
        )


def _resilience_grids(scheme: str, p: float, k_values, l_values):
    """Vectorised Rr / Rd over the (k, l) grid for one scheme."""
    k_col = k_values[:, None].astype(float)
    l_row = l_values[None, :].astype(float)
    honest = 1.0 - p
    # Rr is shared by both multipath schemes (Eq. 1).
    column_captured = 1.0 - honest ** k_col
    with np.errstate(divide="ignore"):
        release = 1.0 - column_captured ** l_row
    if scheme == "disjoint":
        path_cut = 1.0 - honest ** l_row
        drop = 1.0 - path_cut ** k_col
    elif scheme == "joint":
        drop = (1.0 - p ** k_col) ** l_row
    else:
        raise ValueError(f"unknown multipath scheme {scheme!r}")
    return release, drop


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
    k_values = np.arange(1, min(max_replication, node_budget) + 1)
    l_values = np.arange(1, min(max_path_length, node_budget) + 1)
    release, drop = _resilience_grids(scheme, p, k_values, l_values)
    cost = k_values[:, None] * l_values[None, :]
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
    k = int(k_values[k_index])
    l = int(l_values[l_index])
    return PlannedConfiguration(
        scheme=scheme,
        malicious_rate=p,
        replication=k,
        path_length=l,
        release_resilience=float(release[k_index, l_index]),
        drop_resilience=float(drop[k_index, l_index]),
        node_budget=node_budget,
        target=target,
        meets_target=meets,
    )
