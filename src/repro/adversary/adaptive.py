"""Extension: an adaptive (traffic-observing) adversary.

The paper's adversary corrupts a uniformly random ``p`` fraction of the
network up front (Sybil marking).  A stronger adversary *watches* — every
protocol delivery its nodes can observe reveals which honest nodes act as
holders — and then concentrates its remaining corruption budget on the
observed holder set (targeted Eclipse/compromise).

This module models the two-phase game:

1. **seed phase** — a fraction ``seed_rate`` of the network is corrupted
   uniformly (the classic Sybil marking);
2. **adaptive phase** — the adversary observes each holder independently
   with probability ``observation_rate`` (a proxy for how much protocol
   traffic its seeds can see), and spends ``budget`` extra corruptions on
   observed-but-honest holders.

The interesting question the sweep answers: how much *observability* does
the DHT have to leak before the schemes' resilience collapses, and does
pseudo-random holder selection (large anonymity set) actually protect the
structures?  Spoiler (see the tests): with 10,000 nodes and a small grid,
even full observation plus a 5x budget concentration leaves the key-share
scheme standing, because per-column thresholds force *broad* corruption,
not just deep corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.adversary.population import SybilPopulation
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Result of the two-phase corruption game for one structure."""

    seeds_used: int
    targeted_corruptions: int
    observed_holders: int
    release_resisted: bool
    drop_resisted: bool


class AdaptiveAdversary:
    """A two-phase adversary with a targeted corruption budget."""

    def __init__(
        self,
        seed_rate: float,
        observation_rate: float,
        budget: int,
        rng: RandomSource,
    ) -> None:
        self.seed_rate = check_probability(seed_rate, "seed_rate")
        self.observation_rate = check_probability(
            observation_rate, "observation_rate"
        )
        self.budget = check_positive_int(budget, "budget", minimum=0)
        self._rng = rng
        #: Holders observed / corruptions spent by the last :meth:`corrupt`.
        self.last_observed = 0
        self.last_targeted = 0

    def corrupt(
        self,
        population_size: int,
        holders: Sequence[Hashable],
    ) -> SybilPopulation:
        """Run both phases over the id population ``range(population_size)``
        and return the resulting malicious population."""
        sybil = SybilPopulation(self.seed_rate, self._rng.fork("seed-phase"))
        sybil.mark_index_population(population_size)

        observe_rng = self._rng.fork("observe")
        observed = [
            holder
            for holder in holders
            if observe_rng.bernoulli(self.observation_rate)
        ]
        target_rng = self._rng.fork("target")
        candidates = [h for h in observed if not sybil.is_malicious(h)]
        target_rng.shuffle(candidates)
        sybil.force_malicious(candidates[: self.budget])
        self.last_observed = len(observed)
        self.last_targeted = min(self.budget, len(candidates))
        return sybil


def evaluate_adaptive_attack(
    scheme,
    population_size: int,
    adversary: AdaptiveAdversary,
    rng: RandomSource,
) -> AdaptiveOutcome:
    """One trial: sample a structure, corrupt adaptively, evaluate attacks.

    ``scheme`` is a :class:`repro.core.schemes.base.MultipathScheme`; node
    ids are the indices ``range(population_size)``, never materialised.  The
    adversary sees the holder list only through its observation filter —
    it never learns holders its nodes did not notice.
    """
    structure = scheme.sample_structure(
        range(population_size), rng.fork("structure")
    )
    population = adversary.corrupt(population_size, structure.all_holders())
    outcome = scheme.evaluate_attacks(structure, population)
    return AdaptiveOutcome(
        seeds_used=population.malicious_count - adversary.last_targeted,
        targeted_corruptions=adversary.last_targeted,
        observed_holders=adversary.last_observed,
        release_resisted=outcome.release_resisted,
        drop_resisted=outcome.drop_resisted,
    )
