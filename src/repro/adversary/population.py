"""Malicious population marking (Sybil / Eclipse outcome).

Mirrors the paper's experimental setup: "We randomly select ``10000 * p``
non-repeated nodes and mark them as malicious."  The population can mark
either concrete :class:`~repro.dht.node_id.NodeId` objects from an overlay
or the integer ids ``range(N)`` of the adaptive game.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Set

from repro.util.rng import RandomSource
from repro.util.validation import check_probability


class SybilPopulation:
    """The set of adversary-controlled node identities."""

    def __init__(
        self,
        malicious_rate: float,
        rng: RandomSource,
    ) -> None:
        self.malicious_rate = check_probability(malicious_rate, "malicious_rate")
        self._rng = rng
        self._malicious: Set[Hashable] = set()

    # -- bulk marking ------------------------------------------------------

    def mark_population(self, node_ids: Sequence[Hashable]) -> Set[Hashable]:
        """Mark exactly ``round(len(node_ids) * p)`` distinct nodes malicious.

        This is the paper's finite-population marking (sampling without
        replacement), as opposed to independent per-node coin flips; for a
        10,000-node network the difference is within Monte-Carlo noise, but
        tests pin the exact count.
        """
        count = round(len(node_ids) * self.malicious_rate)
        chosen = set(self._rng.sample(list(node_ids), count))
        self._malicious |= chosen
        return chosen

    def mark_index_population(self, population_size: int) -> Set[int]:
        """Mark an id population of ``range(population_size)`` without
        materialising it.

        Draw-for-draw identical to ``mark_population(list(range(N)))`` —
        ``random.sample`` consumes the same stream for any same-length
        sequence.  This is the adaptive game's hot path: one marking per
        trial (``AdaptiveAdversary.corrupt``).
        """
        count = round(population_size * self.malicious_rate)
        chosen = set(self._rng.sample_indices(population_size, count))
        self._malicious |= chosen
        return chosen

    def is_malicious(self, node_id: Hashable) -> bool:
        """Unknown nodes are honest."""
        return node_id in self._malicious

    def force_malicious(self, node_ids: Iterable[Hashable]) -> None:
        """Explicitly corrupt specific nodes (tests, worst-case scenarios)."""
        self._malicious.update(node_ids)

    def force_honest(self, node_ids: Iterable[Hashable]) -> None:
        """Explicitly pin specific nodes honest."""
        self._malicious.difference_update(node_ids)

    @property
    def malicious_count(self) -> int:
        return len(self._malicious)
