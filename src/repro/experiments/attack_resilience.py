"""Fig. 6 — attack resilience and node cost without churn.

For each malicious rate ``p`` and each scheme (central / disjoint / joint)
the ``attack_resilience`` scenario kind
(:func:`repro.scenarios.runners.attack_resilience_runner`):

1. has the planner pick the configuration the sender would use (cheapest
   meeting the target resilience, else best achievable under ``N``);
2. reads the closed-form (Rr, Rd) for the analytic curve;
3. runs a finite-population Monte Carlo — mark exactly ``N * p`` of ``N``
   node ids malicious, sample the holder structure, evaluate both attacks —
   that verifies the curve the way the paper's Overlay Weaver experiments do.

This module is step 3: :func:`measure_attack`, which the ``sensitivity``
kind calls too.  It runs the numpy batch kernels of
:mod:`repro.experiments.attack_kernels` through the engine's
``run_batched`` mode: whole batches of trials as ``(trials, k * l)`` slabs
of placement keys, each attack decided by ranking one key per trial.  The
exact answer the estimates converge to is
:func:`repro.core.analysis.finite_resilience`, which the tests hold them
to.  Results are executor-independent and seed-deterministic.
"""

from __future__ import annotations

from typing import Optional

from repro.core.schemes import Scheme
from repro.experiments.attack_kernels import attack_batch_for
from repro.experiments.engine import PairedEstimate, TrialEngine

#: Default trials per batch.  A fixed constant — never derived
#: from the executor — so the partition (and with it every batch stream)
#: is identical for any worker count, while still producing enough batches
#: for a pool to chew on in parallel.
DEFAULT_BATCH_SIZE = 100


def measure_attack(
    scheme: Scheme,
    malicious_rate: float,
    population_size: int,
    trials: int,
    seed: int,
    engine: TrialEngine,
    label: str,
    batch_size: Optional[int],
) -> PairedEstimate:
    """Finite-population Monte Carlo for one configuration.

    ``label`` seeds the trial streams (so it is part of the result);
    ``batch_size`` partitions the trials (results depend on it only
    through the engine's documented batch-stream rule).
    """
    if batch_size is None:
        batch_size = min(trials, DEFAULT_BATCH_SIZE) or None
    return engine.run_batched(
        attack_batch_for(scheme, malicious_rate, population_size),
        trials=trials,
        seed=seed,
        label=label,
        channels=2,
        batch_size=batch_size,
    ).pair
