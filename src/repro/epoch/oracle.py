"""Scalar reference walker for the epoch simulator — the ground truth.

One trial at a time, driving the existing ``churn.replication`` objects
(``ColumnReplicaSet`` + ``repair_simultaneous_deaths`` +
``fresh_id_allocator``) through the same epoch schedule the vectorized
lane executes: sample a private population for the placed cells, land
each epoch's deaths simultaneously, repair from survivors, then attempt
forwarding.  Statistically equivalent to ``repro.epoch.measure`` (the
scalar lane gives every trial a private node population while the
vectorized lane shares one per batch — identical marginals, and the
estimators are means, so the sharing does not bias them).  The
equivalence property test holds both lanes inside overlapping Wilson
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.churn.replication import (
    ColumnReplicaSet,
    RepairOutcome,
    fresh_id_allocator,
    repair_simultaneous_deaths,
)
from repro.epoch.population import make_lifetime_model, mean_lifetime_for_alpha
from repro.util.rng import RandomSource


class _ScalarEpochWalker:
    """One trial's column grid, stepped an epoch at a time."""

    def __init__(
        self,
        rng: RandomSource,
        malicious_rate: float,
        uptime: float,
        replication: int,
        path_length: int,
        population_size: int,
        alpha: float,
        lifetime: str,
        lifetime_shape: Optional[float],
    ) -> None:
        self.rng = rng
        self.uptime = uptime
        self.replication = replication
        self.path_length = path_length
        mean = mean_lifetime_for_alpha(alpha, path_length)
        self.model = (
            None
            if mean is None
            else make_lifetime_model(lifetime, mean, lifetime_shape)
        )
        marked = int(round(population_size * malicious_rate))
        # Repairs draw at the exact finite marking, like the vectorized lane.
        self.exact_rate = marked / population_size
        self.allocator = fresh_id_allocator(start=population_size)
        slots = rng.sample_indices(
            population_size, replication * path_length
        )
        self.columns: List[ColumnReplicaSet] = []
        self.occupants: List[List[int]] = []
        self.death_epoch: Dict[int, float] = {}
        for column in range(path_length):
            ids = list(slots[column * replication : (column + 1) * replication])
            self.columns.append(
                ColumnReplicaSet(
                    column_index=column + 1,
                    members=set(ids),
                    malicious_members={i for i in ids if i < marked},
                )
            )
            self.occupants.append(ids)
            for node in ids:
                self.death_epoch[node] = self._expiry(0)

    def _expiry(self, epoch: int) -> float:
        if self.model is None:
            return math.inf
        lifetime = self.model.draw_lifetime(self.rng)
        return epoch + max(1.0, math.ceil(lifetime))

    def step(self, epoch: int, active_columns) -> None:
        """One epoch's simultaneous deaths + repairs over ``active_columns``."""
        for column in active_columns:
            replica_set = self.columns[column]
            if replica_set.lost:
                continue
            doomed = [
                occupant
                for occupant in self.occupants[column]
                if self.death_epoch[occupant] == epoch
            ]
            for member, replacement, outcome in repair_simultaneous_deaths(
                replica_set,
                doomed,
                self.exact_rate,
                self.rng,
                self.allocator,
            ):
                if outcome is RepairOutcome.REPAIRED:
                    row = self.occupants[column].index(member)
                    self.occupants[column][row] = replacement
                    self.death_epoch[replacement] = self._expiry(epoch)

    def forwarding_usable(self, column: int) -> List[bool]:
        """Per-replica usability at a forwarding attempt: online and honest."""
        replica_set = self.columns[column]
        return [
            self.rng.bernoulli(self.uptime)
            and occupant not in replica_set.malicious_members
            for occupant in self.occupants[column]
        ]


@dataclass(frozen=True)
class EpochAvailabilityTrial:
    """Scalar oracle for one availability trial (engine.run, channels=2).

    Returns ``(release_success, drop_success)`` — attack *successes*,
    matching the static-model batches so ``outcome_from_result`` applies.
    """

    malicious_rate: float
    uptime: float
    replication: int
    path_length: int
    population_size: int
    alpha: float
    lifetime: str = "exponential"
    lifetime_shape: Optional[float] = None
    joint: bool = False

    def __call__(self, rng: RandomSource) -> Tuple[bool, bool]:
        walker = _ScalarEpochWalker(
            rng,
            self.malicious_rate,
            self.uptime,
            self.replication,
            self.path_length,
            self.population_size,
            self.alpha,
            self.lifetime,
            self.lifetime_shape,
        )
        path_length = self.path_length
        blocked = [False] * path_length
        row_cut = [False] * self.replication
        for epoch in range(1, path_length + 1):
            # Column j (0-based) holds its share through epoch j+1, when
            # it forwards; repairs land before the forwarding attempt.
            walker.step(epoch, range(epoch - 1, path_length))
            column = epoch - 1
            if walker.columns[column].lost:
                blocked[column] = True
                row_cut = [True] * self.replication
                continue
            usable = walker.forwarding_usable(column)
            blocked[column] = not any(usable)
            for row, ok in enumerate(usable):
                if not ok:
                    row_cut[row] = True
        release = all(col.captured for col in walker.columns)
        if self.joint:
            drop = any(blocked)
        else:
            drop = all(row_cut)
        return release, drop


@dataclass(frozen=True)
class EpochTimelinessTrial:
    """Scalar oracle for one timeliness trial (engine.run, 1+R channels).

    Channels are ``(delivered, lateness >= 1, ..., lateness >= R)`` —
    all proportions over trials, so Wilson machinery applies per channel
    and ``sum(tail) / delivered`` recovers the mean lateness.
    """

    malicious_rate: float
    uptime: float
    replication: int
    path_length: int
    population_size: int
    alpha: float
    lifetime: str = "exponential"
    lifetime_shape: Optional[float] = None
    retry_epochs: int = 8

    @property
    def channels(self) -> int:
        return 1 + self.retry_epochs

    def __call__(self, rng: RandomSource) -> Tuple[bool, ...]:
        walker = _ScalarEpochWalker(
            rng,
            self.malicious_rate,
            self.uptime,
            self.replication,
            self.path_length,
            self.population_size,
            self.alpha,
            self.lifetime,
            self.lifetime_shape,
        )
        path_length = self.path_length
        forwarded = [False] * path_length
        frontier = 0
        chain_dead = False
        delivery_epoch = 0
        for epoch in range(1, path_length + self.retry_epochs + 1):
            walker.step(
                epoch,
                [j for j in range(path_length) if not forwarded[j]],
            )
            while frontier < path_length and not chain_dead:
                # Column j+1 forwards no earlier than its nominal epoch;
                # a stalled chain may advance several columns per epoch.
                if epoch < frontier + 1:
                    break
                if walker.columns[frontier].lost:
                    chain_dead = True
                    break
                if not any(walker.forwarding_usable(frontier)):
                    break
                forwarded[frontier] = True
                frontier += 1
                if frontier == path_length:
                    delivery_epoch = epoch
            if frontier == path_length or chain_dead:
                break
        delivered = frontier == path_length
        lateness = delivery_epoch - path_length if delivered else 0
        return (delivered,) + tuple(
            delivered and lateness >= threshold
            for threshold in range(1, self.retry_epochs + 1)
        )
