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
kind calls too, over two Monte-Carlo lanes:

- ``kernel="vectorized"`` — the numpy batch kernels of
  :mod:`repro.experiments.attack_kernels` through the engine's
  ``run_batched`` mode: whole batches of trials as ``(trials, k * l)``
  slabs of placement keys, each attack decided by ranking one key per
  trial, ~10-100x the scalar throughput at N = 10,000;
- ``kernel="scalar"`` — the original per-trial :class:`AttackTrial`
  objects, kept as the small-N oracle the kernels are property-tested
  against.

Neither lane is a default here: the kinds' parameter tables own it (the
unpinned default is ``"scalar"``; every built-in measuring spec pins
``"vectorized"``).  The lanes draw from different (per-trial fork vs
per-batch numpy) streams, so their estimates agree statistically rather
than bit-for-bit; within a lane, results remain executor-independent and
seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adversary.population import SybilPopulation
from repro.core.schemes import Scheme
from repro.experiments.attack_kernels import attack_batch_for
from repro.experiments.engine import PairedEstimate, TrialEngine
from repro.util.rng import RandomSource

KERNELS = ("vectorized", "scalar")

#: Default trials per vectorised batch.  A fixed constant — never derived
#: from the executor — so the partition (and with it every batch stream)
#: is identical for any worker count, while still producing enough batches
#: for a pool to chew on in parallel.
DEFAULT_VECTORIZED_BATCH = 100


def vectorized_batch_size(trials: int, batch_size: Optional[int]) -> Optional[int]:
    """Resolve the vectorised lane's batch partition for a trial budget."""
    if batch_size is not None:
        return batch_size
    return min(trials, DEFAULT_VECTORIZED_BATCH) or None


@dataclass(frozen=True)
class AttackTrial:
    """One finite-population attack trial, as an engine unit.

    Mark exactly ``N * p`` of ``N`` node ids malicious, sample the holder
    structure, evaluate both attacks.  A registered unit class (rather
    than a closure) so the pool and the TCP workers receive it as data.
    """

    scheme: Scheme
    malicious_rate: float
    population_size: int

    @property
    def population_ids(self) -> range:
        """The id population — a ``range``, never a materialised list."""
        return range(self.population_size)

    def __call__(self, rng: RandomSource):
        sybil = SybilPopulation(self.malicious_rate, rng.fork("sybil"))
        sybil.mark_index_population(self.population_size)
        structure = self.scheme.sample_structure(
            self.population_ids, rng.fork("structure")
        )
        outcome = self.scheme.evaluate_attacks(structure, sybil)
        return outcome.release_resisted, outcome.drop_resisted


def check_kernel(kernel: str) -> str:
    """Validate a Monte-Carlo lane name."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel


def measure_attack(
    scheme: Scheme,
    malicious_rate: float,
    population_size: int,
    trials: int,
    seed: int,
    engine: TrialEngine,
    kernel: str,
    label: str,
    batch_size: Optional[int],
) -> PairedEstimate:
    """Finite-population Monte Carlo for one configuration.

    ``kernel`` picks the lane; ``label`` seeds the trial streams (so it is
    part of the result); ``batch_size`` partitions the vectorised lane
    (results depend on it only through the engine's documented
    batch-stream rule).
    """
    if check_kernel(kernel) == "vectorized":
        batch = attack_batch_for(scheme, malicious_rate, population_size)
        if batch is not None:
            return engine.run_batched(
                batch,
                trials=trials,
                seed=seed,
                label=label,
                channels=2,
                batch_size=vectorized_batch_size(trials, batch_size),
            ).pair
    return engine.estimate_pair(
        AttackTrial(scheme, malicious_rate, population_size),
        trials=trials,
        seed=seed,
        label=label,
    )
