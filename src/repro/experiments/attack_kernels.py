"""Vectorised finite-population attack kernels (the Fig. 6 Monte Carlo).

Each kernel runs the paper's finite-population experiment as a numpy batch
unit for :meth:`~repro.experiments.engine.TrialEngine.run_batched`:

1. **Marking.**  The paper marks exactly ``M = round(N * p)`` of ``N`` node
   ids malicious per trial (sampling without replacement).
2. **Structure sampling.**  The sender draws ``c = k * l`` *distinct*
   holders uniformly from the ``N`` ids.  Holder identity never matters to
   the attack predicates — only which grid cells landed on malicious ids —
   and under without-replacement sampling that reduces to: the number of
   malicious holders in the grid is ``Hypergeometric(N, M, c)`` and their
   cells are a uniform ``h``-subset of the ``c`` cells.  The kernel draws
   the count per trial and one uniform key per cell: the malicious cells
   are the ``count`` with the smallest keys, ties taken lowest cell index
   first — without constructing a single id.
3. **Attack predicates.**  Release-ahead succeeds when every column holds a
   malicious replica (Eq. 1); a drop needs every row cut (node-disjoint,
   Eq. 2) or a fully-malicious column (node-joint, Eq. 3).  The malicious
   cells are a prefix of the key order, so each predicate asks whether one
   key is malicious (the largest column minimum, the largest row minimum,
   the smallest column maximum), which it is iff fewer than ``count`` keys
   lie below it: one compare-and-count per predicate, with no sort and no
   ``(trials, k, l)`` mask.  The rare row whose critical key ties
   another is decided on its mask (:func:`place_malicious_counts`'s rule
   with :func:`~repro.core.analysis.evaluate_multipath_masks`), so the tie
   rule holds exactly.

The kernels draw from the engine's per-batch numpy generators.  What their
estimates converge to is known exactly:
:func:`repro.core.analysis.finite_resilience` computes the same experiment's
(Rr, Rd) in closed form, and the tests hold every measured channel to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.analysis import evaluate_multipath_masks
from repro.util.validation import check_positive_int, check_probability

#: Cap on the elements of one (trials, k*l) key slab; larger batches are
#: processed in deterministic sub-slabs (a function of the batch shape
#: alone, never of the executor).  A full slab is 32 MB of float64 keys.
#: Deciding it by rank peaks at ~36 MB (the keys plus one byte per cell
#: for a compare) plus the success rows the tie check copies, up to a
#: second slab when every row succeeds.
MAX_SLAB_ELEMENTS = 4_000_000


def malicious_count(population_size: int, malicious_rate: float) -> int:
    """The paper's exact marking count ``round(N * p)``."""
    check_positive_int(population_size, "population_size")
    check_probability(malicious_rate, "malicious_rate")
    return round(population_size * malicious_rate)


def _smallest_cells(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mark each row's ``count`` smallest keys, ties lowest cell index first."""
    trials, cells = keys.shape
    ordered = np.sort(keys, axis=1)
    # The smallest key *not* taken; a row that takes every cell has none.
    threshold = np.where(
        counts >= cells,
        np.inf,
        ordered[np.arange(trials), np.minimum(counts, cells - 1)],
    )[:, None]
    mask = keys < threshold
    short = counts - mask.sum(axis=1)
    rows = np.flatnonzero(short)
    if rows.size:
        # The threshold key repeats below its own rank: top those rows up
        # from the tied cells in index order.
        tied = keys[rows] == threshold[rows]
        mask[rows] |= tied & (tied.cumsum(axis=1) <= short[rows, None])
    return mask


def place_malicious_counts(
    generator: np.random.Generator,
    counts: np.ndarray,
    replication: int,
    path_length: int,
) -> np.ndarray:
    """Scatter per-trial malicious counts into uniform random grid cells.

    Draw one uniform key per cell and mark each trial's ``count`` smallest:
    a uniform random subset of exactly that size.  The subset is selected
    by *value* — every key below the row's ``count``-th order statistic —
    so one sort per row replaces a full ranking.  Keys tied with the
    threshold are taken lowest cell index first, which makes the mask a
    function of the keys alone (no dependence on a sort's tie order) and
    keeps every row at exactly ``count`` marked cells.
    """
    keys = generator.random((counts.shape[0], replication * path_length))
    return _smallest_cells(keys, counts).reshape(-1, replication, path_length)


def _fixed_status(cells: int, population: int, marked: int) -> Optional[bool]:
    """``False`` at p = 0 and ``True`` at p = 1, where every holder shares
    that malicious status; ``None`` otherwise.

    Also the guard site for impossible grids.
    """
    if cells > population:
        raise ValueError(
            f"population of {population} cannot supply {cells} "
            f"distinct holders"
        )
    if 0 < marked < population:
        return None
    return marked > 0


def _malicious_grid_slabs(
    generator: np.random.Generator,
    trials: int,
    population_size: int,
    marked: int,
    cells: int,
    slab_trials: int,
):
    """Yield ``(counts, keys)`` in ``slab_trials``-sized slabs.

    The one statement of the draw order: hypergeometric counts for the
    whole run upfront, then one ``(step, cells)`` block of placement keys
    per slab.  Sequential generator fills make the slab size invisible to
    the draw stream, so results never depend on the memory cap.
    """
    counts = generator.hypergeometric(
        ngood=marked,
        nbad=population_size - marked,
        nsample=cells,
        size=trials,
    )
    for start in range(0, trials, slab_trials):
        step = min(slab_trials, trials - start)
        yield counts[start : start + step], generator.random((step, cells))


def _ranked(
    keys: np.ndarray, critical: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row: is ``critical`` marked by rank, and could a tie overturn it?

    A key is marked iff fewer than the row's ``count`` keys lie strictly
    below it.  That is exact unless another key equals it, and then only a
    yes can be wrong, so only the yes rows are checked.
    """
    # int32 sums run ~2x faster than the default intp ones; a row is far
    # below 2**31 cells.
    below = np.less(keys, critical[:, None]).sum(axis=1, dtype=np.int32)
    marked = below < counts
    rows = np.flatnonzero(marked)
    equal = np.equal(keys[rows], critical[rows, None]).sum(axis=1, dtype=np.int32)
    tied = np.zeros_like(marked)
    tied[rows] = equal > 1
    return marked, tied


@dataclass(frozen=True)
class MultipathAttackBatch:
    """Engine batch unit for the disjoint/joint finite-population attack.

    A frozen dataclass registered in :data:`repro.backends.wire.UNITS`, so
    every backend can ship it; ``__call__`` matches the engine's
    ``BatchFunction`` contract and
    returns ``(release_resisted, drop_resisted)`` counts.
    """

    malicious_rate: float
    population_size: int
    replication: int
    path_length: int
    joint: bool

    def __post_init__(self) -> None:
        check_probability(self.malicious_rate, "malicious_rate")
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.replication, "replication")
        check_positive_int(self.path_length, "path_length")

    def __call__(
        self, generator: np.random.Generator, count: int
    ) -> Tuple[int, int]:
        marked = malicious_count(self.population_size, self.malicious_rate)
        cells = self.replication * self.path_length
        status = _fixed_status(cells, self.population_size, marked)
        if status is not None:
            # All honest: both attacks resisted.  Every holder malicious:
            # release succeeds, and a drop gets its cut per row / full column.
            return (0, 0) if status else (count, count)
        release_resisted = count
        drop_resisted = count
        for counts, keys in _malicious_grid_slabs(
            generator,
            count,
            self.population_size,
            marked,
            cells,
            slab_trials=max(1, MAX_SLAB_ELEMENTS // cells),
        ):
            release_success, drop_success = self.ranked_successes(keys, counts)
            release_resisted -= int(release_success.sum())
            drop_resisted -= int(drop_success.sum())
        return release_resisted, drop_resisted

    def ranked_successes(
        self, keys: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-trial (release, drop) success flags for one slab of keys.

        Equal to :func:`evaluate_multipath_masks` of the mask
        :func:`place_malicious_counts` builds from the same keys, decided
        by rank without building it (module docstring, step 3).
        """
        grid = keys.reshape(-1, self.replication, self.path_length)
        # Eq. 1: every column holds a marked cell iff the largest column
        # minimum is marked.
        release, release_tied = _ranked(keys, grid.min(axis=1).max(axis=1), counts)
        if self.joint:
            # Eq. 3: some column is fully marked iff the smallest column
            # maximum is.
            drop_key = grid.max(axis=1).min(axis=1)
        else:
            # Eq. 2: every row is cut iff the largest row minimum is.
            drop_key = grid.min(axis=2).max(axis=1)
        drop, drop_tied = _ranked(keys, drop_key, counts)
        tied = np.flatnonzero(release_tied | drop_tied)
        if tied.size:
            mask = _smallest_cells(keys[tied], counts[tied])
            release[tied], drop[tied] = evaluate_multipath_masks(
                mask.reshape(-1, self.replication, self.path_length), self.joint
            )
        return release, drop


@dataclass(frozen=True)
class CentralAttackBatch:
    """Engine batch unit for the centralized scheme's single holder.

    The sampled holder is malicious with probability exactly
    ``round(N * p) / N`` — the finite-population rate, not ``p``.
    """

    malicious_rate: float
    population_size: int

    def __post_init__(self) -> None:
        check_probability(self.malicious_rate, "malicious_rate")
        check_positive_int(self.population_size, "population_size")

    def __call__(
        self, generator: np.random.Generator, count: int
    ) -> Tuple[int, int]:
        marked = malicious_count(self.population_size, self.malicious_rate)
        rate = marked / self.population_size
        captured = int((generator.random(count) < rate).sum())
        resisted = count - captured
        return resisted, resisted


def attack_batch_for(scheme, malicious_rate: float, population_size: int):
    """The batch unit for a scheme instance.

    Dispatches on the concrete scheme classes the Fig. 6 planner emits;
    any other scheme is a ``TypeError``.
    """
    from repro.core.schemes import (
        CentralizedScheme,
        NodeDisjointScheme,
        NodeJointScheme,
    )

    if isinstance(scheme, CentralizedScheme):
        return CentralAttackBatch(malicious_rate, population_size)
    if isinstance(scheme, (NodeDisjointScheme, NodeJointScheme)):
        return MultipathAttackBatch(
            malicious_rate=malicious_rate,
            population_size=population_size,
            replication=scheme.replication,
            path_length=scheme.path_length,
            joint=isinstance(scheme, NodeJointScheme),
        )
    raise TypeError(f"no attack batch unit for {type(scheme).__name__}")
