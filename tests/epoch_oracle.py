"""The scalar reference walker the epoch lane (``repro.epoch``) is held to.

One trial at a time, with a private node population per trial, it walks
the same epoch schedule the vectorized lane executes: place the shares,
land each epoch's deaths simultaneously, repair from survivors onto fresh
nodes, then attempt the epoch's forwarding.  The vectorized lane shares
one population per batch — identical marginals, and the estimators are
means, so the sharing does not bias them.
``tests/epoch/test_equivalence.py`` holds both inside overlapping Wilson
intervals; ``tests/system/test_perf_smoke.py`` times one point through
both.

The column bookkeeping is :class:`ColumnReplicaSet` (paper §III-D): every
repair hands the column key to one more node, which is malicious with the
population's marked rate, so the set of nodes that ever knew a key only
grows — the release-ahead exposure cost of replica maintenance.

The two trial classes are scalar engine units: ``engine.run(trial, ...)``
runs them in process; they are not in the wire's unit table, so no
backend ships them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.epoch.population import make_lifetime_model, mean_lifetime_for_alpha
from repro.util.rng import RandomSource
from repro.util.validation import check_probability


class RepairOutcome(Enum):
    """Result of processing one death within a column."""

    REPAIRED = "repaired"  # a surviving replica copied state to a new node
    COLUMN_LOST = "column_lost"  # no survivor remained: data gone (drop)
    NOT_A_MEMBER = "not_a_member"  # the dead node was not in this column


@dataclass
class ColumnReplicaSet:
    """The live replicas of one column key plus its historical exposure.

    ``members`` are the current live replicas (opaque ids),
    ``malicious_members`` the adversary's subset of them, ``ever_knew``
    every id that ever held the key; the key is *captured* once
    ``ever_knew_malicious`` is positive.
    """

    column_index: int
    members: Set = field(default_factory=set)
    malicious_members: Set = field(default_factory=set)
    ever_knew: Set = field(default_factory=set)
    ever_knew_malicious: int = 0
    lost: bool = False
    repairs: int = 0

    def __post_init__(self) -> None:
        self.ever_knew |= set(self.members)
        self.ever_knew_malicious = len(self.malicious_members & self.ever_knew)

    @property
    def alive_count(self) -> int:
        return len(self.members)

    @property
    def captured(self) -> bool:
        """True once any node that ever knew the key is malicious."""
        return self.ever_knew_malicious > 0

    def handle_death(
        self,
        dead_member,
        replacement,
        replacement_is_malicious: bool,
    ) -> RepairOutcome:
        """Process the death of ``dead_member`` with a proposed replacement.

        If at least one replica survives, the column repairs itself onto
        ``replacement`` (which joins ``ever_knew``).  With no survivor the
        column is lost: the key cannot be copied from anywhere.
        """
        if dead_member not in self.members:
            return RepairOutcome.NOT_A_MEMBER
        self.members.discard(dead_member)
        self.malicious_members.discard(dead_member)
        if not self.members:
            self.lost = True
            return RepairOutcome.COLUMN_LOST
        if replacement in self.ever_knew:
            raise ValueError("replacement node already knew this column key")
        self.members.add(replacement)
        self.ever_knew.add(replacement)
        if replacement_is_malicious:
            self.malicious_members.add(replacement)
            self.ever_knew_malicious += 1
        self.repairs += 1
        return RepairOutcome.REPAIRED


def repair_simultaneous_deaths(
    column: ColumnReplicaSet,
    doomed,
    malicious_rate: float,
    rng: RandomSource,
    id_allocator,
) -> List[tuple]:
    """Land one epoch's deaths *together*, then repair the survivors.

    All of an epoch's deaths happen before any republish round runs, so a
    column whose *entire* membership dies in one epoch has no survivor to
    repair from and is lost.  Returns ``[(dead_member,
    replacement_or_None, outcome), ...]`` so the caller can track which
    replacement landed in which replica slot.
    """
    check_probability(malicious_rate, "malicious_rate")
    outcomes: List[tuple] = []
    doomed = [member for member in doomed if member in column.members]
    if column.lost or not doomed:
        return outcomes
    if set(doomed) >= column.members:
        column.members.clear()
        column.malicious_members.clear()
        column.lost = True
        return [
            (member, None, RepairOutcome.COLUMN_LOST) for member in doomed
        ]
    for member in doomed:
        replacement = next(id_allocator)
        outcome = column.handle_death(
            member,
            replacement,
            replacement_is_malicious=rng.bernoulli(malicious_rate),
        )
        outcomes.append((member, replacement, outcome))
    return outcomes


def fresh_id_allocator(start: int = 1_000_000):
    """An infinite stream of opaque integer ids for replacement nodes."""
    current = start
    while True:
        yield current
        current += 1


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
    matching ``EpochAvailabilityBatch``'s channels.
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

    Channels are ``(delivered, lateness >= 1, ..., lateness >= R)``,
    matching ``EpochTimelinessBatch``'s.
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
