"""The Monte-Carlo samplers Fig. 7, Fig. 8 and the static availability lane
were once measured with, kept as the oracle of their closed forms
(``repro.experiments.churn_model`` and ``repro.experiments.availability``).

Each sampler draws the model's events independently per trial and returns
attack-success counts ``(release, drop)``; ``tests/experiments/
test_churn_oracle.py`` holds every closed form within z = 3.29 of them.
"""

import math

import numpy as np

from repro.core.schemes.keyshare import cumulative_success_rates


def centralized_churn_counts(p, alpha, trials, rng):
    """One holder: release if malicious, drop if malicious or dead."""
    malicious = rng.random(trials) < p
    survives = rng.random(trials) < math.exp(-alpha)
    return int(malicious.sum()), int((malicious | ~survives).sum())


def multipath_churn_counts(p, alpha, k, l, trials, rng, joint):
    """Column replicas repaired on death; exposure grows with each repair."""
    p_dead = 1.0 - math.exp(-alpha / l)
    columns = np.arange(1, l + 1)  # column j endures j periods of churn
    repairs = rng.binomial(n=np.broadcast_to(columns * k, (trials, l)), p=p_dead)
    exposure = k + repairs  # nodes that ever knew the column key
    column_captured = rng.random((trials, l)) < (1.0 - (1.0 - p) ** exposure)
    release_success = column_captured.all(axis=1)

    # A column key is lost iff all k replicas die within one of its periods.
    column_lost_probability = 1.0 - (1.0 - p_dead ** k) ** columns
    churn_lost = (rng.random((trials, l)) < column_lost_probability).any(axis=1)
    if joint:  # a full column of malicious occupants
        blocked = 1.0 - (1.0 - p ** k) ** l
    else:  # every row cut
        blocked = (1.0 - (1.0 - p) ** l) ** k
    drop_success = churn_lost | (rng.random(trials) < blocked)
    return int(release_success.sum()), int(drop_success.sum())


def key_share_churn_counts(plan, trials, rng, malicious_rate=None):
    """Per (trial, column, path) Bernoulli draws at Algorithm 1's
    cumulative per-column rates."""
    release_rates, drop_rates = map(
        np.asarray, cumulative_success_rates(plan, malicious_rate)
    )
    shape = (trials, plan.path_length, plan.replication)
    captured = rng.random(shape) < release_rates[None, :, None]
    starved = rng.random(shape) < drop_rates[None, :, None]
    release_success = captured.any(axis=2).all(axis=1)
    drop_success = starved.all(axis=2).any(axis=1)
    return int(release_success.sum()), int(drop_success.sum())


def multipath_availability_counts(p, uptime, k, l, trials, rng, joint):
    """Offline holders cannot forward but keep their keys."""
    malicious = rng.random((trials, l, k)) < p
    offline = rng.random((trials, l, k)) >= uptime
    unusable = malicious | offline
    if joint:
        drop_success = unusable.all(axis=2).any(axis=1)  # a whole column out
    else:
        drop_success = unusable.any(axis=1).all(axis=1)  # every row cut
    release_success = malicious.any(axis=2).all(axis=1)
    return int(release_success.sum()), int(drop_success.sum())


def key_share_availability_counts(plan, uptime, p, trials, rng):
    """Carriers drawn whole: malicious, then offline among them."""
    n = plan.shares_per_column
    thresholds = np.array(plan.thresholds, dtype=np.int64)
    shape = (trials, plan.path_length - 1, plan.replication)
    malicious = rng.binomial(n=n, p=p, size=shape)
    offline = rng.binomial(n=n, p=1.0 - uptime, size=shape)
    offline_malicious = rng.hypergeometric(
        ngood=malicious, nbad=n - malicious, nsample=offline
    )
    honest_online = (n - malicious) - (offline - offline_malicious)
    captured = malicious >= thresholds[None, :, None]
    starved = honest_online < thresholds[None, :, None]
    seed_shape = (trials, 1, plan.replication)
    seed_captured = rng.random(seed_shape) < p
    seed_starved = rng.random(seed_shape) < max(p, 1.0 - uptime)
    captured = np.concatenate([seed_captured, captured], axis=1)
    starved = np.concatenate([seed_starved, starved], axis=1)
    release_success = captured.any(axis=2).all(axis=1)
    drop_success = starved.all(axis=2).any(axis=1)
    return int(release_success.sum()), int(drop_success.sum())
