"""Malicious population marking (Sybil / Eclipse outcome).

Mirrors the paper's experimental setup: "We randomly select ``10000 * p``
non-repeated nodes and mark them as malicious."  The population can mark
either concrete :class:`~repro.dht.node_id.NodeId` objects from an overlay
or opaque ids used by the epoch Monte Carlo, and can extend the marking to
nodes that join later (replacements are malicious with probability ``p``,
the assumption §III-D's exposure argument rests on).
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
        self._decided: Set[Hashable] = set()
        # Ids in [0, _decided_index_prefix) are decided without being
        # materialised in _decided — the index-population fast path.
        self._decided_index_prefix = 0

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
        self._decided |= set(node_ids)
        return chosen

    def mark_index_population(self, population_size: int) -> Set[int]:
        """Mark an id population of ``range(population_size)`` without
        materialising it.

        Draw-for-draw identical to ``mark_population(list(range(N)))`` —
        ``random.sample`` consumes the same stream for any same-length
        sequence — but stores only the ``round(N * p)`` malicious ids: the
        N-element decided set is replaced by the interval bookkeeping the
        membership tests below read.  This is the adaptive game's hot
        path: one marking per trial (``AdaptiveAdversary.corrupt``).
        """
        count = round(population_size * self.malicious_rate)
        chosen = set(self._rng.sample_indices(population_size, count))
        self._malicious |= chosen
        self._decided_index_prefix = max(
            self._decided_index_prefix, population_size
        )
        return chosen

    def _is_decided(self, node_id: Hashable) -> bool:
        if node_id in self._decided:
            return True
        return (
            type(node_id) is int and 0 <= node_id < self._decided_index_prefix
        )

    # -- incremental marking -----------------------------------------------

    def decide(self, node_id: Hashable) -> bool:
        """Decide (once, memoized) whether a node is malicious.

        Used for nodes that join after the initial marking — replacement
        nodes created by churn repair.  Each is malicious independently with
        probability ``p``.
        """
        if not self._is_decided(node_id):
            self._decided.add(node_id)
            if self._rng.bernoulli(self.malicious_rate):
                self._malicious.add(node_id)
        return node_id in self._malicious

    def is_malicious(self, node_id: Hashable) -> bool:
        """Query without deciding; unknown nodes are honest."""
        return node_id in self._malicious

    def force_malicious(self, node_ids: Iterable[Hashable]) -> None:
        """Explicitly corrupt specific nodes (tests, worst-case scenarios)."""
        for node_id in node_ids:
            self._decided.add(node_id)
            self._malicious.add(node_id)

    def force_honest(self, node_ids: Iterable[Hashable]) -> None:
        """Explicitly pin specific nodes honest."""
        for node_id in node_ids:
            self._decided.add(node_id)
            self._malicious.discard(node_id)

    @property
    def malicious_count(self) -> int:
        return len(self._malicious)

    def malicious_ids(self) -> Set[Hashable]:
        return set(self._malicious)

    def honest_fraction_of(self, node_ids: Sequence[Hashable]) -> float:
        """Fraction of a concrete node set that is honest (diagnostics)."""
        if not node_ids:
            raise ValueError("node set must be non-empty")
        honest = sum(1 for node_id in node_ids if node_id not in self._malicious)
        return honest / len(node_ids)
