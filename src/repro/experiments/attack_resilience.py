"""Fig. 6 — attack resilience and node cost without churn.

For each malicious rate ``p`` and each scheme (central / disjoint / joint):

1. the planner picks the configuration the sender would use (cheapest
   meeting the target resilience, else best achievable under ``N``);
2. the closed-form (Rr, Rd) give the analytic curve;
3. a finite-population Monte Carlo — mark exactly ``N * p`` of ``N`` node
   ids malicious, sample the holder structure, evaluate both attacks —
   verifies the curve the way the paper's Overlay Weaver experiments do.

``attack_resilience_point`` is one (scheme, p) point; the registered
``fig6a``…``fig6d`` scenarios sweep it over the figure's grid
(``population_size=10000`` for (a)+(b), ``100`` for (c)+(d)).

Two Monte-Carlo lanes implement step 3:

- ``kernel="vectorized"`` (default) — the numpy batch kernels of
  :mod:`repro.experiments.attack_kernels` through the engine's
  ``run_batched`` mode: whole batches of trials as ``(trials, k, l)``
  malicious-mask arrays, ~10-100x the scalar throughput at N = 10,000;
- ``kernel="scalar"`` — the original per-trial :class:`AttackTrial`
  objects, kept as the small-N oracle the kernels are property-tested
  against.

The lanes draw from different (per-trial fork vs per-batch numpy) streams,
so their estimates agree statistically rather than bit-for-bit; within a
lane, results remain executor-independent and seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adversary.population import SybilPopulation
from repro.core.planner import DEFAULT_TARGET, PlannedConfiguration, plan_configuration
from repro.core.schemes import (
    CentralizedScheme,
    NodeDisjointScheme,
    NodeJointScheme,
    Scheme,
)
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
class AttackResiliencePoint:
    """One (scheme, p) point of Fig. 6."""

    scheme: str
    malicious_rate: float
    configuration: PlannedConfiguration
    analytic_release: float
    analytic_drop: float
    measured: Optional[PairedEstimate] = None

    @property
    def analytic_worst(self) -> float:
        """The R axis of Fig. 6(a)/(c)."""
        return min(self.analytic_release, self.analytic_drop)

    @property
    def measured_worst(self) -> Optional[float]:
        return self.measured.worst if self.measured is not None else None

    @property
    def cost(self) -> int:
        """The C axis of Fig. 6(b)/(d)."""
        return self.configuration.cost


def _scheme_for(configuration: PlannedConfiguration) -> Scheme:
    if configuration.scheme == "central":
        return CentralizedScheme()
    if configuration.scheme == "disjoint":
        return NodeDisjointScheme(
            configuration.replication, configuration.path_length
        )
    if configuration.scheme == "joint":
        return NodeJointScheme(configuration.replication, configuration.path_length)
    raise ValueError(f"unknown scheme {configuration.scheme!r}")


class AttackTrial:
    """One finite-population attack trial, as a picklable callable.

    Mark exactly ``N * p`` of ``N`` node ids malicious, sample the holder
    structure, evaluate both attacks.  A module-level class (rather than a
    closure) so a shared sweep pool can ship the task to workers by pickle.
    """

    def __init__(
        self, scheme: Scheme, malicious_rate: float, population_size: int
    ) -> None:
        self.scheme = scheme
        self.malicious_rate = malicious_rate
        self.population_size = population_size

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


def _measure(
    scheme: Scheme,
    malicious_rate: float,
    population_size: int,
    trials: int,
    seed: int,
    engine: TrialEngine,
    kernel: str = "vectorized",
    batch_size: Optional[int] = None,
) -> PairedEstimate:
    """Finite-population Monte Carlo for one configuration."""
    from repro.experiments.attack_kernels import attack_batch_for

    label = f"fig6-{scheme.name}-{malicious_rate}"
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


def attack_resilience_point(
    scheme_name: str,
    malicious_rate: float,
    population_size: int = 10000,
    trials: int = 400,
    target: float = DEFAULT_TARGET,
    measure: bool = True,
    seed: int = 2017,
    engine: Optional[TrialEngine] = None,
    kernel: str = "vectorized",
    batch_size: Optional[int] = None,
) -> AttackResiliencePoint:
    """One (scheme, p) point of Fig. 6 — the sweepable unit.

    Plans the configuration, evaluates the closed-form curve, and (when
    ``measure`` and the plan fits the population) verifies it by Monte
    Carlo.  ``kernel`` picks the Monte-Carlo lane (``"vectorized"`` numpy
    batches or the ``"scalar"`` per-trial oracle); ``batch_size``
    partitions the vectorised lane (results depend on it only through the
    engine's documented batch-stream rule).
    """
    if engine is None:
        engine = TrialEngine()
    check_kernel(kernel)
    configuration = plan_configuration(
        scheme_name, malicious_rate, population_size, target=target
    )
    scheme = _scheme_for(configuration)
    measured = None
    if measure and configuration.cost <= population_size:
        measured = _measure(
            scheme,
            malicious_rate,
            population_size,
            trials,
            seed=seed,
            engine=engine,
            kernel=kernel,
            batch_size=batch_size,
        )
    return AttackResiliencePoint(
        scheme=scheme_name,
        malicious_rate=malicious_rate,
        configuration=configuration,
        analytic_release=configuration.release_resilience,
        analytic_drop=configuration.drop_resilience,
        measured=measured,
    )
