"""Extension: transient unavailability on top of death churn.

The paper's §II-C distinguishes *node death* (modelled throughout the
evaluation) from *node unavailability* — a holder that is merely offline at
its forwarding instant blocks on-time release without losing data.  The
evaluation section leaves this axis unexplored; this extension sweeps it.

Model: every holder is independently offline at any given boundary with
probability ``1 - uptime`` (the stationary availability of the alternating
renewal process in :mod:`repro.churn.session`).  An offline holder cannot
forward (drop side) but keeps its stored keys, so release-ahead resilience
is untouched — which is exactly why the effect is interesting: it shifts
*only one* side of the Rr/Rd balance.

- multipath joint: a column forwards iff >= 1 holder is online and honest;
- multipath disjoint: a row survives iff its holder is online and honest at
  every boundary;
- key-share: an offline carrier's shares miss the boundary, so it behaves
  like a temporary dead share — absorbed by the (m, n) threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.schemes.keyshare import SharePlan
from repro.util.validation import check_positive_int, check_probability


def simulate_multipath_availability_counts(
    malicious_rate: float,
    uptime: float,
    replication: int,
    path_length: int,
    trials: int,
    rng: np.random.Generator,
    joint: bool,
) -> Tuple[int, int]:
    """Attack-success counts for the multipath sweep (engine batch unit)."""
    p = check_probability(malicious_rate, "malicious_rate")
    up = check_probability(uptime, "uptime")
    k = check_positive_int(replication, "replication")
    l = check_positive_int(path_length, "path_length")

    malicious = rng.random((trials, l, k)) < p
    offline = rng.random((trials, l, k)) >= up
    unusable = malicious | offline

    if joint:
        column_blocked = unusable.all(axis=2)  # whole column out
        drop_success = column_blocked.any(axis=1)
    else:
        row_cut = unusable.any(axis=1)  # any bad hop cuts a row
        drop_success = row_cut.all(axis=1)

    # Offline holders keep their keys: release capture is malicious-only.
    column_captured = malicious.any(axis=2)
    release_success = column_captured.all(axis=1)

    return int(release_success.sum()), int(drop_success.sum())


def simulate_key_share_availability_counts(
    plan: SharePlan,
    uptime: float,
    trials: int,
    rng: np.random.Generator,
    malicious_rate: float,
) -> Tuple[int, int]:
    """Attack-success counts for the key-share sweep (engine batch unit)."""
    up = check_probability(uptime, "uptime")
    p = check_probability(malicious_rate, "malicious_rate")
    n = plan.shares_per_column
    l = plan.path_length
    k = plan.replication
    thresholds = np.array(plan.thresholds, dtype=np.int64)

    shape = (trials, l - 1, k)
    malicious = rng.binomial(n=n, p=p, size=shape)
    offline = rng.binomial(n=n, p=1.0 - up, size=shape)
    offline_malicious = rng.hypergeometric(
        ngood=malicious, nbad=n - malicious, nsample=offline
    )
    honest_online = (n - malicious) - (offline - offline_malicious)

    captured = malicious >= thresholds[None, :, None]
    starved = honest_online < thresholds[None, :, None]
    seed_captured = rng.random((trials, 1, k)) < p
    seed_starved = rng.random((trials, 1, k)) < max(p, 1.0 - up)
    captured = np.concatenate([seed_captured, captured], axis=1)
    starved = np.concatenate([seed_starved, starved], axis=1)

    release_success = captured.any(axis=2).all(axis=1)
    drop_success = starved.all(axis=2).any(axis=1)
    return int(release_success.sum()), int(drop_success.sum())


# Batch callables as frozen dataclasses registered in repro.backends.wire.UNITS,
# so the pool and the TCP workers receive them as data (see churn_resilience).


@dataclass(frozen=True)
class MultipathAvailabilityBatch:
    """Engine batch unit for the disjoint/joint availability sweep."""

    malicious_rate: float
    uptime: float
    replication: int
    path_length: int
    joint: bool

    def __call__(self, generator, count):
        return simulate_multipath_availability_counts(
            self.malicious_rate,
            self.uptime,
            self.replication,
            self.path_length,
            count,
            generator,
            self.joint,
        )


@dataclass(frozen=True)
class KeyShareAvailabilityBatch:
    """Engine batch unit for the key-share availability sweep."""

    plan: SharePlan
    uptime: float
    malicious_rate: float

    def __call__(self, generator, count):
        return simulate_key_share_availability_counts(
            self.plan, self.uptime, count, generator, malicious_rate=self.malicious_rate
        )


#: Kernel lanes the ``availability`` scenario kind dispatches between.
#: "static" is the historical per-boundary offline model (the batch units
#: above, no deaths); the epoch lanes simulate death churn + repair on an
#: explicit node population (repro.epoch), where ``alpha`` / ``lifetime`` /
#: ``lifetime_shape`` parameterize node lifetimes.
AVAILABILITY_KERNELS = ("static", "epoch", "epoch-scalar")


def check_kernel(kernel: str) -> str:
    """Validate an availability lane name."""
    if kernel not in AVAILABILITY_KERNELS:
        raise ValueError(
            f"unknown availability kernel {kernel!r}; "
            f"expected one of {AVAILABILITY_KERNELS}"
        )
    return kernel
