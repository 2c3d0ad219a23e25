"""Key share routing (paper §III-D) and Algorithm 1.

Instead of pre-assigning onion-layer keys at the start time — which forces
holders to *store* keys for up to the whole emerging period and lets churn
repairs leak them — the sender splits every layer key into ``n`` Shamir
shares and routes the shares alongside the onions.  A layer key exists at
its column only for one holding period, and the ``(m, n)`` threshold
absorbs shares lost to churn.

Algorithm 1 picks ``m`` per column by balancing the two attack-success
tails:

- release-ahead at a column succeeds when the adversary pools ``m`` of the
  ``n`` shares, i.e. ``P[Bin(n, p) >= m]``;
- drop at a column succeeds when fewer than ``m`` honest shares survive
  among the ``n - d`` that churn left alive, i.e.
  ``P[Bin(n - d, p) >= n - d - m + 1]``.

``m`` minimizes the absolute difference of those two tails (which no
column changes, so one ``m`` serves every column), the per-column
success rates accumulate across columns, and the final aggregation over the
``k`` onion paths yields (Rr, Rd).  We implement the pseudocode faithfully,
with one documented disambiguation: the paper's final loop reads ``l``
per-column entries while the column loop pushes ``l - 1``, and the paper
initializes ``pr = pd = p`` before the loop — so the recorded lists are
seeded with that column-1 value (see DESIGN.md §5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import check_positive, check_positive_int, check_probability


@dataclass(frozen=True)
class SharePlan:
    """Everything Algorithm 1 decides for one (k, l, N, T, λ, p) input."""

    replication: int
    path_length: int
    node_budget: int
    shares_per_column: int  # n
    dead_share_estimate: int  # d
    death_probability: float  # p_dead for one holding period
    malicious_rate: float
    thresholds: Tuple[int, ...]  # m for columns 2..l (len == l - 1)
    release_success_by_column: Tuple[float, ...]  # cumulative pr, len == l
    drop_success_by_column: Tuple[float, ...]  # cumulative pd, len == l
    release_tail_by_column: Tuple[float, ...]  # per-column P[Bin(n,p) >= m]
    drop_tail_by_column: Tuple[float, ...]  # per-column drop tail
    release_resilience: float  # Rr
    drop_resilience: float  # Rd

    @property
    def worst_resilience(self) -> float:
        return min(self.release_resilience, self.drop_resilience)


def _binomial_tail(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """``P[Bin(n, p) > k]`` for ``0 <= k < n``: the regularised incomplete
    beta function, which is what ``scipy.stats.binom.sf`` evaluates — bit
    for bit — without importing ``scipy.stats``.  ``scipy.special`` is
    imported here, on first use, so importing the module costs no scipy."""
    from scipy.special import betainc

    return betainc(k + 1, n - k, p)


def _release_tails(n: int, p: float) -> np.ndarray:
    """``P[Bin(n, p) >= m]`` for every ``m`` in 1..n (index m-1)."""
    return _binomial_tail(np.arange(0, n), n, p)


def _drop_tails(n: int, d: int, p: float) -> np.ndarray:
    """``P[Bin(n-d, p) >= n-d-m+1]`` for every ``m`` in 1..n (index m-1).

    Thresholds above ``n - d`` have probability 0 (cannot have more
    malicious than alive) and thresholds below 1 have probability 1.
    """
    alive = n - d
    thresholds = alive - np.arange(1, n + 1) + 1  # n-d-m+1 for m = 1..n
    tails = np.empty(n, dtype=float)
    impossible = thresholds > alive  # never true here but kept for clarity
    certain = thresholds <= 0
    regular = ~certain & ~impossible
    tails[certain] = 1.0
    tails[impossible] = 0.0
    tails[regular] = _binomial_tail(thresholds[regular] - 1, alive, p)
    return tails


def path_resilience(
    release_by_column: Sequence[float],
    drop_by_column: Sequence[float],
    replication: int,
) -> Tuple[float, float]:
    """Algorithm 1's lines 14-18: per-column attack-success rates → (Rr, Rd).

    The ``k`` onion paths are independent: release-ahead needs every
    column captured on at least one path, a drop needs one column starved
    on all ``k`` paths.
    """
    release_failure = 1.0  # lines 14-17
    drop_resilience = 1.0
    for column_release, column_drop in zip(release_by_column, drop_by_column):
        release_failure *= 1.0 - (1.0 - column_release) ** replication
        drop_resilience *= 1.0 - column_drop ** replication
    return 1.0 - release_failure, drop_resilience  # line 18


def algorithm1(
    replication: int,
    path_length: int,
    node_budget: int,
    emerging_time: float,
    mean_lifetime: float,
    malicious_rate: float,
) -> SharePlan:
    """Paper Algorithm 1: choose (m, n) per column and compute (Rr, Rd).

    Parameters mirror the paper's input line: ``k`` and ``l`` come from the
    node-joint planner, ``N`` is the number of nodes available for path
    construction, ``T`` the emerging time, ``λ`` the mean node lifetime and
    ``p`` the node malicious rate.
    """
    k = check_positive_int(replication, "replication")
    l = check_positive_int(path_length, "path_length", minimum=2)
    check_positive_int(node_budget, "node_budget")
    check_positive(emerging_time, "emerging_time")
    check_positive(mean_lifetime, "mean_lifetime")
    p = check_probability(malicious_rate, "malicious_rate")

    n = node_budget // l  # line 1
    if n < 1:
        raise ValueError(
            f"node budget {node_budget} cannot give every one of {l} columns a share"
        )
    holding = emerging_time / l
    p_dead = 1.0 - math.exp(-holding / mean_lifetime)  # line 2
    d = math.floor(p_dead * n)  # line 3

    release_tails = _release_tails(n, p)
    drop_tails = _drop_tails(n, d, p)
    # Line 8's tails depend on (n, d, p) only, never on the column, so
    # its argmin picks the same m for every column: it runs once.
    m_index = int(np.argmin(np.abs(release_tails - drop_tails)))  # line 8
    m = m_index + 1
    column_release = float(release_tails[m_index])
    column_drop = float(drop_tails[m_index])

    pr = p  # line 4
    pd = p
    release_by_column: List[float] = [pr]  # seeded with column 1 (line 4-5)
    drop_by_column: List[float] = [pd]
    for _column in range(2, l + 1):  # lines 7-13
        pr = 1.0 - (1.0 - pr) * (1.0 - column_release)  # line 9
        pd = 1.0 - (1.0 - pd) * (1.0 - column_drop)  # lines 10-11
        release_by_column.append(pr)
        drop_by_column.append(pd)

    release_resilience, drop_resilience = path_resilience(
        release_by_column, drop_by_column, k
    )

    return SharePlan(
        replication=k,
        path_length=l,
        node_budget=node_budget,
        shares_per_column=n,
        dead_share_estimate=d,
        death_probability=p_dead,
        malicious_rate=p,
        thresholds=(m,) * (l - 1),
        release_success_by_column=tuple(release_by_column),
        drop_success_by_column=tuple(drop_by_column),
        # Column 1 contributes p itself.
        release_tail_by_column=(p,) + (column_release,) * (l - 1),
        drop_tail_by_column=(p,) + (column_drop,) * (l - 1),
        release_resilience=release_resilience,
        drop_resilience=drop_resilience,
    )


def cumulative_success_rates(
    plan: SharePlan, malicious_rate: Optional[float] = None
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Per-column cumulative (release, drop) success rates for a plan.

    Re-evaluates Algorithm 1's lines 9-11 with the plan's chosen
    thresholds, optionally against an *actual* malicious rate different
    from the one the plan was balanced for (the planning-floor case in the
    churn experiments).  With ``malicious_rate=None`` this reproduces the
    plan's stored ``release/drop_success_by_column`` exactly.
    """
    p = (
        plan.malicious_rate
        if malicious_rate is None
        else check_probability(malicious_rate, "malicious_rate")
    )
    n = plan.shares_per_column
    d = plan.dead_share_estimate
    release_tails = _release_tails(n, p)
    drop_tails = _drop_tails(n, d, p)
    pr = pd = p
    release_by_column = [pr]
    drop_by_column = [pd]
    for m in plan.thresholds:
        column_release = float(release_tails[m - 1])
        column_drop = float(drop_tails[m - 1])
        pr = 1.0 - (1.0 - pr) * (1.0 - column_release)
        pd = 1.0 - (1.0 - pd) * (1.0 - column_drop)
        release_by_column.append(pr)
        drop_by_column.append(pd)
    return tuple(release_by_column), tuple(drop_by_column)


DEFAULT_SHARE_PATH_CAP = 32


def plan_share_scheme(
    malicious_rate: float,
    node_budget: int,
    emerging_time: float,
    mean_lifetime: float,
    max_path_length: int = DEFAULT_SHARE_PATH_CAP,
) -> SharePlan:
    """End-to-end parameter selection for the key-share scheme.

    Per the paper, ``k`` and ``l`` are "determined by the node-joint
    multipath routing scheme" — we run the node-joint planner, with the
    path length capped (long onion paths starve the share columns: with
    ``n = N / l`` shares per column, an uncapped planner at high ``p``
    would drive ``n`` below the threshold noise floor).  Algorithm 1 then
    picks the per-column ``(m, n)``.
    """
    from repro.core.planner import plan_configuration

    check_positive_int(node_budget, "node_budget")
    cap = min(max_path_length, max(2, node_budget // 4))
    configuration = plan_configuration(
        "joint", malicious_rate, node_budget, max_path_length=cap
    )
    path_length = max(2, min(configuration.path_length, node_budget // 2))
    return algorithm1(
        configuration.replication,
        path_length,
        node_budget,
        emerging_time,
        mean_lifetime,
        malicious_rate,
    )
