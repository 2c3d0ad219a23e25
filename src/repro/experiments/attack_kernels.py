"""Vectorised finite-population attack kernels (the Fig. 6 fast lane).

The scalar :class:`~repro.experiments.attack_resilience.AttackTrial` walks
one trial at a time through Python objects: build a
:class:`~repro.adversary.population.SybilPopulation`, sample a holder grid,
evaluate both attacks.  These kernels run the *same experiment* as numpy
batch units for :meth:`~repro.experiments.engine.TrialEngine.run_batched`:

1. **Marking.**  The paper marks exactly ``M = round(N * p)`` of ``N`` node
   ids malicious per trial (sampling without replacement).
2. **Structure sampling.**  The sender draws ``c = k * l`` *distinct*
   holders uniformly from the ``N`` ids.  Holder identity never matters to
   the attack predicates — only which grid cells landed on malicious ids —
   and under without-replacement sampling that reduces to: the number of
   malicious holders in the grid is ``Hypergeometric(N, M, c)`` and their
   cells are a uniform ``h``-subset of the ``c`` cells.  The kernel draws
   the count per trial and places it with one batched draw of uniform
   keys — the cells whose key is below the row's ``count``-th smallest,
   ties taken lowest cell index first — giving a ``(trials, k, l)``
   boolean malicious mask without constructing a single id.
3. **Attack predicates.**  Release-ahead succeeds when every column holds a
   malicious replica (Eq. 1); a drop needs every row cut (node-disjoint,
   Eq. 2) or a fully-malicious column (node-joint, Eq. 3) — three axis
   reductions over the mask.

The kernels draw from the engine's per-batch numpy generators rather than
the scalar lane's fork-per-trial streams, so estimates are *statistically*
(not bit-) identical to :class:`AttackTrial`; the property tests pin the
equivalence on small populations and the scalar class stays around as the
small-N oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.validation import check_positive_int, check_probability

#: Cap on the elements of one (trials, k*l) sampling slab; larger batches
#: are processed in deterministic sub-slabs (a function of the batch shape
#: alone, never of the executor) to bound peak memory at ~100 MB.
MAX_SLAB_ELEMENTS = 4_000_000


def malicious_count(population_size: int, malicious_rate: float) -> int:
    """The paper's exact marking count ``round(N * p)``."""
    check_positive_int(population_size, "population_size")
    check_probability(malicious_rate, "malicious_rate")
    return round(population_size * malicious_rate)


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
    trials = counts.shape[0]
    cells = replication * path_length
    keys = generator.random((trials, cells))
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
    return mask.reshape(trials, replication, path_length)


def _constant_mask(
    trials: int, replication: int, path_length: int, marked: int, population: int
) -> Optional[np.ndarray]:
    """The degenerate all-honest / all-malicious mask, or ``None``.

    Also the one guard site for impossible grids, shared by the public
    sampler and the production batch units so the two can never diverge.
    """
    cells = replication * path_length
    if cells > population:
        raise ValueError(
            f"population of {population} cannot supply {cells} "
            f"distinct holders"
        )
    if marked <= 0:
        return np.zeros((trials, replication, path_length), dtype=bool)
    if marked >= population:
        return np.ones((trials, replication, path_length), dtype=bool)
    return None


def _malicious_grid_slabs(
    generator: np.random.Generator,
    trials: int,
    population_size: int,
    marked: int,
    replication: int,
    path_length: int,
    slab_trials: int,
):
    """Yield non-degenerate masks in ``slab_trials``-sized slabs.

    Hypergeometric counts for the whole run are drawn upfront and placement
    keys slab by slab; sequential generator fills make the slab size
    invisible to the draw stream, so results never depend on the memory
    cap.  This is the one sampling core: :func:`sample_malicious_grids`
    and the batch units both run through it.
    """
    cells = replication * path_length
    counts = generator.hypergeometric(
        ngood=marked,
        nbad=population_size - marked,
        nsample=cells,
        size=trials,
    )
    done = 0
    while done < trials:
        step = min(slab_trials, trials - done)
        yield place_malicious_counts(
            generator, counts[done : done + step], replication, path_length
        )
        done += step


def sample_malicious_grids(
    generator: np.random.Generator,
    trials: int,
    population_size: int,
    marked: int,
    replication: int,
    path_length: int,
) -> np.ndarray:
    """Draw ``(trials, replication, path_length)`` malicious-holder masks.

    Distributionally identical to marking ``marked`` of ``population_size``
    ids and sampling ``replication * path_length`` distinct holders per
    trial: a hypergeometric count scattered by batched permutation.
    """
    constant = _constant_mask(
        trials, replication, path_length, marked, population_size
    )
    if constant is not None:
        return constant
    return np.concatenate(
        list(
            _malicious_grid_slabs(
                generator,
                trials,
                population_size,
                marked,
                replication,
                path_length,
                slab_trials=trials,
            )
        ),
        axis=0,
    )


def evaluate_multipath_masks(
    mask: np.ndarray, joint: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial attack success flags from a ``(trials, k, l)`` mask."""
    # Release-ahead (Eq. 1): a malicious replica in every column.
    release_success = mask.any(axis=1).all(axis=1)
    if joint:
        # Drop (Eq. 3): some column entirely malicious.
        drop_success = mask.all(axis=1).any(axis=1)
    else:
        # Drop (Eq. 2): every row (path) cut somewhere.
        drop_success = mask.any(axis=2).all(axis=1)
    return release_success, drop_success


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
        constant = _constant_mask(
            count, self.replication, self.path_length, marked, self.population_size
        )
        if constant is not None:
            if not constant.any():
                return count, count  # all honest: both attacks resisted
            # Every holder malicious: release always succeeds; a drop
            # needs a cut per row / a full column, which it also gets.
            return 0, 0
        cells = self.replication * self.path_length
        slab_trials = max(1, MAX_SLAB_ELEMENTS // cells)
        release_resisted = count
        drop_resisted = count
        for mask in _malicious_grid_slabs(
            generator,
            count,
            self.population_size,
            marked,
            self.replication,
            self.path_length,
            slab_trials,
        ):
            release_success, drop_success = evaluate_multipath_masks(
                mask, self.joint
            )
            release_resisted -= int(release_success.sum())
            drop_resisted -= int(drop_success.sum())
        return release_resisted, drop_resisted


@dataclass(frozen=True)
class CentralAttackBatch:
    """Engine batch unit for the centralized scheme's single holder.

    The sampled holder is malicious with probability exactly
    ``round(N * p) / N`` — the finite-population rate, not ``p`` — matching
    the scalar oracle's marking.
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


def attack_batch_for(
    scheme, malicious_rate: float, population_size: int
) -> Optional[object]:
    """The vectorised batch unit for a scheme instance, or ``None``.

    Dispatches on the concrete scheme classes the Fig. 6 planner emits;
    unknown schemes return ``None`` so callers fall back to the scalar
    :class:`AttackTrial` oracle.
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
    return None
