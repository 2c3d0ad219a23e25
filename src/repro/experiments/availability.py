"""Extension: transient unavailability on top of death churn.

The paper's §II-C distinguishes *node death* (modelled throughout the
evaluation) from *node unavailability* — a holder that is merely offline at
its forwarding instant blocks on-time release without losing data.  The
evaluation section leaves this axis unexplored; this extension sweeps it.

Static model: every holder is independently offline at any given boundary
with probability ``1 - uptime`` (the stationary availability of the
alternating renewal process in :mod:`repro.churn.session`), independently
of being malicious.  An offline holder cannot forward (drop side) but keeps
its stored keys, so release-ahead resilience is untouched — which is
exactly why the effect is interesting: it shifts *only one* side of the
Rr/Rd balance.  A holder is unusable with probability
``u = 1 - (1 - p)·uptime``:

- multipath: ``Rr`` is Eq. 1; a joint column forwards iff >= 1 holder is
  usable, ``Rd = (1 - u^k)^l`` (Eq. 3 at ``u``); a disjoint row survives
  iff every hop is usable, ``Rd = 1 - (1 - (1-u)^l)^k`` (Eq. 2 at ``u``);
- key-share: an offline carrier's shares miss the boundary, so it behaves
  like a temporary dead share — absorbed by the (m, n) threshold.  Column
  1 is captured with ``p`` and starved with ``max(p, 1 - uptime)``; column
  ``j >= 2`` is captured when ``Bin(n, p) >= m_j`` and starved when the
  honest online carriers, ``Bin(n, (1-p)·uptime)``, fall below ``m_j``.
  Release and drop are scored separately, so these marginals suffice;
  Algorithm 1's lines 14-18 aggregate them over the ``k`` paths.

The forms are exact (the tests hold the old samplers to them).  The
``epoch_availability`` and ``epoch_timeliness`` kinds simulate death churn
and repair on an explicit node population instead (:mod:`repro.epoch`),
so they stay Monte Carlo.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import eq1_release, eq2_disjoint_drop, eq3_joint_drop
from repro.core.schemes.keyshare import SharePlan, _binomial_tail, path_resilience
from repro.experiments.churn_model import ChurnOutcome
from repro.util.validation import check_positive_int, check_probability


def multipath_availability(
    malicious_rate: float,
    uptime: float,
    replication: int,
    path_length: int,
    joint: bool,
) -> ChurnOutcome:
    """The disjoint/joint schemes with offline holders."""
    p = check_probability(malicious_rate, "malicious_rate")
    up = check_probability(uptime, "uptime")
    k = check_positive_int(replication, "replication")
    l = check_positive_int(path_length, "path_length")
    unusable = 1.0 - (1.0 - p) * up
    drop = eq3_joint_drop if joint else eq2_disjoint_drop
    return ChurnOutcome(eq1_release(p, k, l), drop(unusable, k, l))


def key_share_availability(
    plan: SharePlan, uptime: float, malicious_rate: float
) -> ChurnOutcome:
    """Key-share routing with offline carriers."""
    up = check_probability(uptime, "uptime")
    p = check_probability(malicious_rate, "malicious_rate")
    n = plan.shares_per_column
    below = np.array(plan.thresholds, dtype=np.int64) - 1  # m_j - 1
    captured = _binomial_tail(below, n, p)
    starved = 1.0 - _binomial_tail(below, n, (1.0 - p) * up)
    return ChurnOutcome(
        *path_resilience(
            [p, *captured.tolist()],
            [max(p, 1.0 - up), *starved.tolist()],
            plan.replication,
        )
    )
