"""TrialEngine-compatible batch units + point-level epoch estimators.

The batch units are frozen dataclasses registered in
:data:`repro.backends.wire.UNITS`, so the pool and distributed backends
ship them as data.
``EpochAvailabilityBatch(generator, count)`` returns ``(release, drop)``
attack-success counts; ``EpochTimelinessBatch`` returns ``(delivered,
lateness >= 1, ..., lateness >= R)`` counts — every channel a valid
proportion over trials, so the engine's Wilson machinery and adaptive
stopping apply unchanged.

Each batch samples one shared :class:`EpochPopulation` and walks the
epochs: simultaneous deaths, repairs onto private fresh nodes, then the
epoch's forwarding attempt.  Batches whose cell slab would exceed
:data:`MAX_SLAB_ELEMENTS` are split internally (each chunk gets its own
population — statistically identical, bounded memory).

``EPOCH_METRICS`` is a process-local ``repro.obs`` registry fed by the
batch units (``epoch.node_epochs``, ``epoch.repairs``,
``epoch.columns_lost``, ``epoch.batches``, ``epoch.trials``).  Like all
observability here it is a pure side channel: counters never influence
results, and under pool executors each worker process accumulates its
own copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.planner import PLANNING_FLOOR, plan_configuration
from repro.epoch.placement import PlacementState
from repro.epoch.population import (
    EpochPopulation,
    make_lifetime_model,
    mean_lifetime_for_alpha,
)
from repro.epoch.repair import step_epoch
from repro.experiments.churn_model import outcome_from_result
from repro.obs import MetricsRegistry

#: Cap on a chunk's ``trials * path_length * replication`` cell slab.
MAX_SLAB_ELEMENTS = 4_000_000

#: Process-local telemetry for the epoch kernels.
EPOCH_METRICS = MetricsRegistry()


def _lifetime_model(batch):
    mean = mean_lifetime_for_alpha(batch.alpha, batch.path_length)
    if mean is None:
        return None
    return make_lifetime_model(batch.lifetime, mean, batch.lifetime_shape)


def _chunk_sizes(count: int, cells: int) -> Tuple[int, ...]:
    per_chunk = max(1, MAX_SLAB_ELEMENTS // max(cells, 1))
    if count <= per_chunk:
        return (count,)
    full, rest = divmod(count, per_chunk)
    return (per_chunk,) * full + ((rest,) if rest else ())


@dataclass(frozen=True)
class EpochAvailabilityBatch:
    """Vectorized epoch availability: counts of (release, drop) successes."""

    malicious_rate: float
    uptime: float
    replication: int
    path_length: int
    population_size: int
    alpha: float
    lifetime: str = "exponential"
    lifetime_shape: Optional[float] = None
    joint: bool = False

    def __call__(
        self, generator: np.random.Generator, count: int
    ) -> Tuple[int, int]:
        release = drop = 0
        cells = self.path_length * self.replication
        for chunk in _chunk_sizes(count, cells):
            chunk_release, chunk_drop = self._simulate(generator, chunk)
            release += chunk_release
            drop += chunk_drop
        return release, drop

    def _simulate(
        self, generator: np.random.Generator, trials: int
    ) -> Tuple[int, int]:
        path_length, replication = self.path_length, self.replication
        model = _lifetime_model(self)
        population = EpochPopulation.sample(
            model,
            self.population_size,
            self.malicious_rate,
            self.uptime,
            generator,
        )
        state = PlacementState.place(
            population, trials, path_length, replication, generator
        )
        column_index = np.arange(path_length)
        blocked = np.zeros((trials, path_length), dtype=bool)
        row_cut = np.zeros((trials, replication), dtype=bool)
        lost_columns = 0
        for epoch in range(1, path_length + 1):
            # Column j (0-based) holds its share through epoch j+1;
            # repairs land before the epoch's forwarding attempt.
            active = np.broadcast_to(
                column_index >= epoch - 1, (trials, path_length)
            )
            repairs, lost = step_epoch(
                state, population, epoch, active, model, generator
            )
            lost_columns += lost
            node_online = population.online_mask(generator)
            online = state.online_cells(node_online, self.uptime, generator)
            forwarding = epoch - 1
            usable = (
                online[:, forwarding, :] & ~state.malicious[:, forwarding, :]
            )
            column_lost = state.lost[:, forwarding]
            blocked[:, forwarding] = column_lost | ~usable.any(axis=1)
            row_cut |= column_lost[:, None] | ~usable
        release = state.captured.all(axis=1)
        if self.joint:
            drop = blocked.any(axis=1)
        else:
            drop = row_cut.all(axis=1)
        _record(
            self.population_size * path_length,
            state.repairs,
            lost_columns,
            trials,
        )
        return int(release.sum()), int(drop.sum())


@dataclass(frozen=True)
class EpochTimelinessBatch:
    """Vectorized epoch timeliness: (delivered, lateness>=1..R) counts."""

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

    def __call__(
        self, generator: np.random.Generator, count: int
    ) -> Tuple[int, ...]:
        totals = np.zeros(self.channels, dtype=np.int64)
        cells = self.path_length * self.replication
        for chunk in _chunk_sizes(count, cells):
            totals += self._simulate(generator, chunk)
        return tuple(int(value) for value in totals)

    def _simulate(
        self, generator: np.random.Generator, trials: int
    ) -> np.ndarray:
        path_length, replication = self.path_length, self.replication
        epochs = path_length + self.retry_epochs
        model = _lifetime_model(self)
        population = EpochPopulation.sample(
            model,
            self.population_size,
            self.malicious_rate,
            self.uptime,
            generator,
        )
        state = PlacementState.place(
            population, trials, path_length, replication, generator
        )
        forwarded = np.zeros((trials, path_length), dtype=bool)
        frontier = np.zeros(trials, dtype=np.int64)
        chain_dead = np.zeros(trials, dtype=bool)
        delivery_epoch = np.zeros(trials, dtype=np.int64)
        rows = np.arange(trials)
        lost_columns = 0
        for epoch in range(1, epochs + 1):
            _, lost = step_epoch(
                state, population, epoch, ~forwarded, model, generator
            )
            lost_columns += lost
            node_online = population.online_mask(generator)
            online = state.online_cells(node_online, self.uptime, generator)
            forwardable = (
                (online & ~state.malicious).any(axis=2) & ~state.lost
            )
            # Chain advance: a column forwards no earlier than its nominal
            # epoch, but a stalled chain may advance several columns at once.
            for _ in range(path_length):
                pending = (~chain_dead) & (frontier < path_length)
                eligible = pending & (epoch >= frontier + 1)
                if not eligible.any():
                    break
                column = np.minimum(frontier, path_length - 1)
                chain_dead |= eligible & state.lost[rows, column]
                advance = eligible & forwardable[rows, column]
                advance &= ~chain_dead
                if not advance.any():
                    break
                forwarded[rows[advance], column[advance]] = True
                frontier = frontier + advance
                delivered_now = advance & (frontier == path_length)
                delivery_epoch[delivered_now] = epoch
        delivered = frontier == path_length
        lateness = np.where(delivered, delivery_epoch - path_length, -1)
        counts = np.empty(self.channels, dtype=np.int64)
        counts[0] = int(delivered.sum())
        for threshold in range(1, self.retry_epochs + 1):
            counts[threshold] = int(
                (delivered & (lateness >= threshold)).sum()
            )
        _record(
            self.population_size * epochs, state.repairs, lost_columns, trials
        )
        return counts


def _record(
    node_epochs: int, repairs: int, lost_columns: int, trials: int
) -> None:
    EPOCH_METRICS.counter("epoch.node_epochs").inc(node_epochs)
    EPOCH_METRICS.counter("epoch.repairs").inc(repairs)
    EPOCH_METRICS.counter("epoch.columns_lost").inc(lost_columns)
    EPOCH_METRICS.counter("epoch.batches").inc()
    EPOCH_METRICS.counter("epoch.trials").inc(trials)


# -- point-level entry points (what the epoch_* kinds call) ----------------


def epoch_availability_outcome(
    scheme: str,
    uptime: float,
    malicious_rate: float,
    population_size: int,
    alpha: float,
    lifetime: str,
    lifetime_shape: Optional[float],
    trials: int,
    seed: int,
    engine,
    batch_size: Optional[int],
):
    """Measure one availability point under epoch churn; a ChurnOutcome.

    The (k, l) configuration comes from the same planner call the
    closed-form ``availability`` kind uses, so the two are comparable.
    """
    if scheme not in ("disjoint", "joint"):
        raise ValueError(
            "the epoch kernel simulates the multipath schemes "
            f"('disjoint', 'joint'); got scheme {scheme!r}"
        )
    planned = plan_configuration(
        scheme, max(malicious_rate, PLANNING_FLOOR), population_size
    )
    label = (
        f"epoch-avail-{scheme}-{uptime}-{malicious_rate}-{alpha}-{lifetime}"
    )
    fields = dict(
        malicious_rate=malicious_rate,
        uptime=uptime,
        replication=planned.replication,
        path_length=planned.path_length,
        population_size=population_size,
        alpha=alpha,
        lifetime=lifetime,
        lifetime_shape=lifetime_shape,
    )
    with engine.tracer.span(
        "epoch.point",
        kind="epoch_availability",
        scheme=scheme,
        nodes=population_size,
        replication=planned.replication,
        path_length=planned.path_length,
        alpha=alpha,
    ):
        result = engine.run_batched(
            EpochAvailabilityBatch(joint=(scheme == "joint"), **fields),
            trials=trials,
            seed=seed,
            label=label,
            channels=2,
            batch_size=batch_size,
        )
    return outcome_from_result(result)


def epoch_timeliness_result(
    uptime: float,
    malicious_rate: float,
    population_size: int,
    alpha: float,
    lifetime: str,
    lifetime_shape: Optional[float],
    path_length: int,
    replication: int,
    retry_epochs: int,
    trials: int,
    seed: int,
    engine,
    batch_size: Optional[int],
):
    """Measure one timeliness point under epoch churn.

    Returns ``(delivered, trials_run, mean_lateness, worst_lateness)``.
    Lateness is counted in epochs past the nominal ``path_length``-epoch
    schedule and is right-censored at ``retry_epochs`` (a chain that has
    not delivered by then counts as undelivered).  A column forwards
    when any replica is usable (the joint rule), hence the label.
    """
    label = f"epoch-time-joint-{uptime}-{malicious_rate}-{alpha}-{lifetime}"
    fields = dict(
        malicious_rate=malicious_rate,
        uptime=uptime,
        replication=replication,
        path_length=path_length,
        population_size=population_size,
        alpha=alpha,
        lifetime=lifetime,
        lifetime_shape=lifetime_shape,
        retry_epochs=retry_epochs,
    )
    with engine.tracer.span(
        "epoch.point",
        kind="epoch_timeliness",
        nodes=population_size,
        replication=replication,
        path_length=path_length,
        alpha=alpha,
    ):
        batch = EpochTimelinessBatch(**fields)
        result = engine.run_batched(
            batch,
            trials=trials,
            seed=seed,
            label=label,
            channels=batch.channels,
            batch_size=batch_size,
        )
    delivered = result.estimates[0].successes
    tail = [estimate.successes for estimate in result.estimates[1:]]
    mean_lateness = (sum(tail) / delivered) if delivered else 0.0
    worst = 0
    for threshold, count in enumerate(tail, start=1):
        if count > 0:
            worst = threshold
    return delivered, result.trials, mean_lateness, float(worst)
