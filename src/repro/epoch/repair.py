"""The vectorized per-epoch death/repair round.

Replica maintenance at epoch granularity: within one epoch all deaths
land *simultaneously*, then the survivors republish.  A column whose
``k`` holders all die in the same epoch is lost — there is no survivor
to repair from (a sequential interleaving, each death repaired before
the next, could never lose a ``k >= 2`` column; the scalar oracle of
``tests/epoch_oracle.py`` takes the same simultaneous step).  Every other
death is repaired onto a fresh private node whose own lifetime starts
at the repair epoch and whose maliciousness is an independent
Bernoulli draw at the population's exact marked rate — a malicious
replacement learns (captures) its column's key share, exactly as a
malicious joiner handed a republished share would.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.churn.lifetime import LifetimeModel
from repro.epoch.placement import PRIVATE_NODE, PlacementState
from repro.epoch.population import EpochPopulation, sample_lifetimes


def step_epoch(
    state: PlacementState,
    population: EpochPopulation,
    epoch: int,
    active: np.ndarray,
    model: Optional[LifetimeModel],
    generator: np.random.Generator,
) -> Tuple[int, int]:
    """Apply epoch ``epoch``'s deaths and repairs over ``active`` columns.

    ``active`` is ``(trials, l)`` — columns still holding their share
    (not yet forwarded/expired); lost columns are skipped internally.
    Returns ``(repairs, newly_lost_columns)`` for telemetry.
    """
    holding = active & ~state.lost
    dying = (state.death_epoch == epoch) & holding[:, :, None]
    newly_lost = dying.all(axis=2) & holding
    state.lost |= newly_lost
    repair = dying & ~newly_lost[:, :, None]
    count = int(repair.sum())
    if count:
        if model is None:
            replacement_deaths = np.full(count, np.inf)
        else:
            lifetimes = sample_lifetimes(model, count, generator)
            replacement_deaths = epoch + np.maximum(
                np.ceil(lifetimes / population.epoch_duration), 1.0
            )
        replacement_malicious = (
            generator.random(count) < population.malicious_rate
        )
        state.slots[repair] = PRIVATE_NODE
        state.death_epoch[repair] = replacement_deaths
        state.malicious[repair] = replacement_malicious
        exposed = np.zeros(repair.shape, dtype=bool)
        exposed[repair] = replacement_malicious
        state.captured |= exposed.any(axis=2)
        state.repairs += count
    return count, int(newly_lost.sum())
