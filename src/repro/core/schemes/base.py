"""Common scheme interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.adversary.population import SybilPopulation
from repro.core.analysis import ResiliencePair, evaluate_multipath_masks
from repro.core.paths import HolderGrid, build_grid
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class AttackOutcome:
    """Result of evaluating both attacks against one sampled structure.

    ``release_resisted`` — the adversary could *not* restore the secret key
    at the start time (counts toward ``Rr``).
    ``drop_resisted`` — the adversary could *not* prevent release at ``tr``
    (counts toward ``Rd``).
    """

    release_resisted: bool
    drop_resisted: bool


class Scheme:
    """Base class: a parameterised self-emerging key routing scheme."""

    name: str = "abstract"

    def resilience(self, malicious_rate: float) -> ResiliencePair:
        """Closed-form (Rr, Rd) without churn."""
        raise NotImplementedError

    @property
    def node_cost(self) -> int:
        """Distinct holders the structure consumes."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cost={self.node_cost})"


class MultipathScheme(Scheme):
    """A ``k x l`` holder grid; subclasses set ``joint`` (the drop rule)."""

    joint: bool

    def __init__(self, replication: int, path_length: int) -> None:
        self.replication = check_positive_int(replication, "replication")
        self.path_length = check_positive_int(path_length, "path_length")

    @property
    def node_cost(self) -> int:
        return self.replication * self.path_length

    def sample_structure(
        self, population: Sequence[Hashable], rng: RandomSource
    ) -> HolderGrid:
        """Draw the holder grid the sender would construct."""
        return build_grid(population, self.replication, self.path_length, rng)

    def evaluate_attacks(
        self, structure: HolderGrid, population: SybilPopulation
    ) -> AttackOutcome:
        """Static (no-churn) attack evaluation for one grid."""
        import numpy as np

        mask = np.array(
            [
                [population.is_malicious(holder) for holder in row]
                for row in structure.rows
            ]
        )
        release, drop = evaluate_multipath_masks(mask[None], self.joint)
        return AttackOutcome(
            release_resisted=not release[0], drop_resisted=not drop[0]
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.replication}, l={self.path_length})"
