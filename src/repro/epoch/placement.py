"""Share→node assignment and per-cell state for a batch of trials.

A trial places ``path_length * replication`` shares (``l`` columns of
``k`` replicas each — paper notation) onto distinct nodes of the shared
population.  :class:`PlacementState` keeps everything per-cell as
``(trials, l, k)`` slabs: which node holds the share, when that holder
dies, whether it is malicious, plus the per-column exposure ("a
malicious node ever saw this column's key") and loss bits the repair
round maintains.

Repaired cells leave the shared population: a replacement is a fresh
private node (slot sentinel ``-1``) with its own lifetime and session
draws — the scalar oracle the tests hold this lane to
(``tests/epoch_oracle.py``) does the same with fresh ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.epoch.population import EpochPopulation

#: Slot value marking a cell repaired onto a private (off-population) node.
PRIVATE_NODE = -1

#: Redraw rounds before :func:`sample_distinct_slots` gives up.  Each
#: round re-rolls only the colliding cells, so with ``cells`` at most a
#: small fraction of the population the collision mass shrinks
#: geometrically and this bound is never approached in practice.
MAX_REDRAW_ROUNDS = 64


def sample_distinct_slots(
    generator: np.random.Generator,
    trials: int,
    cells: int,
    population: int,
) -> np.ndarray:
    """``(trials, cells)`` node ids, distinct within each trial's row.

    Distinctness matches the oracle's ``rng.sample_indices`` placement.
    The fast path draws with replacement and redraws only duplicate
    cells; when the draw is a large fraction of the population (where
    redrawing converges slowly) it falls back to random-key argsort,
    which is exact and costs ``O(trials * population)`` — affordable
    precisely because that regime implies a small population.
    """
    if cells > population:
        raise ValueError(
            f"cannot place {cells} shares on {population} distinct nodes"
        )
    if trials <= 0:
        return np.empty((0, cells), dtype=np.int64)
    if population <= 4 * cells:
        keys = generator.random((trials, population))
        return np.argsort(keys, axis=1, kind="stable")[:, :cells].astype(
            np.int64
        )
    slots = generator.integers(0, population, size=(trials, cells))
    for _ in range(MAX_REDRAW_ROUNDS):
        duplicates = _duplicate_mask(slots)
        count = int(duplicates.sum())
        if not count:
            return slots
        slots[duplicates] = generator.integers(0, population, size=count)
    raise RuntimeError(
        f"distinct placement did not converge after {MAX_REDRAW_ROUNDS} "
        f"redraw rounds ({cells} cells over {population} nodes)"
    )


def _duplicate_mask(slots: np.ndarray) -> np.ndarray:
    """Cells that collide with an earlier-sorted equal cell in their row."""
    order = np.argsort(slots, axis=1, kind="stable")
    ranked = np.take_along_axis(slots, order, axis=1)
    duplicate_ranked = np.zeros_like(ranked, dtype=bool)
    duplicate_ranked[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
    duplicates = np.zeros_like(duplicate_ranked)
    np.put_along_axis(duplicates, order, duplicate_ranked, axis=1)
    return duplicates


@dataclass
class PlacementState:
    """Mutable per-cell arrays for one batch of placed trials."""

    #: ``(trials, l, k)`` node ids; :data:`PRIVATE_NODE` after a repair.
    slots: np.ndarray
    #: ``(trials, l, k)`` epoch each holder dies in (float; inf = never).
    death_epoch: np.ndarray
    #: ``(trials, l, k)`` current holder is malicious.
    malicious: np.ndarray
    #: ``(trials, l)`` a malicious node has ever held this column's key.
    captured: np.ndarray
    #: ``(trials, l)`` column lost all replicas in one epoch — key gone.
    lost: np.ndarray
    #: Repairs performed so far across the batch.
    repairs: int = field(default=0)

    @classmethod
    def place(
        cls,
        population: EpochPopulation,
        trials: int,
        path_length: int,
        replication: int,
        generator: np.random.Generator,
    ) -> "PlacementState":
        flat = sample_distinct_slots(
            generator, trials, path_length * replication, population.size
        )
        slots = flat.reshape(trials, path_length, replication)
        malicious = slots < population.malicious_count
        return cls(
            slots=slots,
            death_epoch=population.death_epoch[slots].copy(),
            malicious=malicious,
            captured=malicious.any(axis=2),
            lost=np.zeros((trials, path_length), dtype=bool),
        )

    @property
    def trials(self) -> int:
        return self.slots.shape[0]

    @property
    def path_length(self) -> int:
        return self.slots.shape[1]

    @property
    def replication(self) -> int:
        return self.slots.shape[2]

    def online_cells(
        self,
        node_online: np.ndarray,
        uptime: float,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """This epoch's per-cell online mask, ``(trials, l, k)``.

        Population-backed cells read the shared per-node mask (two
        trials holding the same node see the same session state, as they
        would on a real overlay); private repaired cells draw their own
        independent Bernoulli(uptime) state.
        """
        private = self.slots == PRIVATE_NODE
        online = node_online[np.where(private, 0, self.slots)]
        count = int(private.sum())
        if count:
            if uptime >= 1.0:
                draws = np.ones(count, dtype=bool)
            elif uptime <= 0.0:
                draws = np.zeros(count, dtype=bool)
            else:
                draws = generator.random(count) < uptime
            online[private] = draws
        return online
