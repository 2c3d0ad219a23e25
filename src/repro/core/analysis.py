"""Closed-form attack resilience (paper §III, Eqs. 1-3 and Lemma 1).

Notation (throughout): ``p`` — node malicious rate; ``k`` — replication
factor (number of paths); ``l`` — path length (holders per path).

- Centralized scheme: ``Rr = Rd = 1 - p``.
- Node-disjoint multipath (Eqs. 1 and 2)::

      Rr = 1 - (1 - (1-p)^k)^l
      Rd = 1 - (1 - (1-p)^l)^k

- Node-joint multipath (Eq. 3; Rr unchanged from Eq. 1)::

      Rd = (1 - p^k)^l

Lemma 1: for the node-joint scheme, ``Rr + Rd > 1`` whenever ``p < 0.5``.

The events behind the equations, as predicates on sampled malicious-holder
masks, are :func:`evaluate_multipath_masks`.

Each equation is stated once, as plain arithmetic (:func:`eq1_release`,
:func:`eq2_disjoint_drop`, :func:`eq3_joint_drop`): on Python scalars it is
the validated per-configuration functions below, on broadcasting numpy
arrays it is the planner's whole ``(k, l)`` search grid, with the same
operations in the same order, so both give the same bits.

Eqs. 1-3 are the infinite-population limit.  :func:`finite_resilience` is
the exact value of the experiment Fig. 6 measures — exactly ``round(N p)``
of ``N`` ids malicious, ``k * l`` distinct holders — which the Monte-Carlo
estimates are held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.util.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class ResiliencePair:
    """A (release-ahead, drop) resilience pair for one configuration."""

    release: float
    drop: float

    @property
    def worst(self) -> float:
        """min(Rr, Rd) — the single number the evaluation plots as R."""
        return min(self.release, self.drop)


def eq1_release(p, k, l):
    """Eq. 1, ``1 - (1 - (1-p)^k)^l``, unvalidated."""
    return 1.0 - (1.0 - (1.0 - p) ** k) ** l


def eq2_disjoint_drop(p, k, l):
    """Eq. 2, ``1 - (1 - (1-p)^l)^k``, unvalidated."""
    return 1.0 - (1.0 - (1.0 - p) ** l) ** k


def eq3_joint_drop(p, k, l):
    """Eq. 3, ``(1 - p^k)^l``, unvalidated."""
    return (1.0 - p ** k) ** l


def _validated(malicious_rate, replication, path_length):
    return (
        check_probability(malicious_rate, "malicious_rate"),
        check_positive_int(replication, "replication"),
        check_positive_int(path_length, "path_length"),
    )


def centralized_resilience(malicious_rate: float) -> ResiliencePair:
    """Both resiliences equal ``1 - p`` (paper §III-A)."""
    p = check_probability(malicious_rate, "malicious_rate")
    return ResiliencePair(release=1.0 - p, drop=1.0 - p)


def disjoint_release_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 1: ``Rr = 1 - (1 - (1-p)^k)^l``.

    The adversary succeeds iff every column (holders sharing a layer key)
    contains at least one malicious holder.
    """
    return eq1_release(*_validated(malicious_rate, replication, path_length))


def disjoint_drop_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 2: ``Rd = 1 - (1 - (1-p)^l)^k``.

    The adversary succeeds iff every path contains a malicious holder.
    """
    return eq2_disjoint_drop(*_validated(malicious_rate, replication, path_length))


def disjoint_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> ResiliencePair:
    """Both Eq. 1 and Eq. 2 for one configuration."""
    return ResiliencePair(
        release=disjoint_release_resilience(malicious_rate, replication, path_length),
        drop=disjoint_drop_resilience(malicious_rate, replication, path_length),
    )


def joint_release_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Node-joint Rr equals the node-disjoint Rr (Eq. 1): the capture
    condition (one malicious holder per column) is structural to the
    column-replicated keys and unchanged by the richer forwarding graph."""
    return disjoint_release_resilience(malicious_rate, replication, path_length)


def joint_drop_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 3: ``Rd = (1 - p^k)^l``.

    With full column-to-column fan-out the package dies only when an entire
    column is malicious.
    """
    return eq3_joint_drop(*_validated(malicious_rate, replication, path_length))


def joint_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> ResiliencePair:
    """Eq. 1 and Eq. 3 for one configuration."""
    return ResiliencePair(
        release=joint_release_resilience(malicious_rate, replication, path_length),
        drop=joint_drop_resilience(malicious_rate, replication, path_length),
    )


def evaluate_multipath_masks(mask, joint: bool):
    """Per-trial attack success flags from a ``(trials, k, l)`` mask.

    ``mask[t, i, j]`` is whether trial ``t``'s holder on path ``i`` of
    column ``j`` is malicious; returns ``(release_success, drop_success)``
    boolean arrays of length ``trials``.  The one statement of the static
    attack rules of §II-B: the Fig. 6 kernel decides its tied rows with it
    and the node-disjoint/node-joint schemes evaluate one grid with it.
    """
    # Release-ahead (Eq. 1): a malicious replica in every column.
    release_success = mask.any(axis=1).all(axis=1)
    if joint:
        # Drop (Eq. 3): some column entirely malicious.
        drop_success = mask.all(axis=1).any(axis=1)
    else:
        # Drop (Eq. 2): every row (path) cut somewhere.
        drop_success = mask.any(axis=2).all(axis=1)
    return release_success, drop_success


@lru_cache(maxsize=4)
def _log_factorials(population_size: int):
    """``log(i!)`` for ``i`` in ``0..population_size``, one rounding each."""
    import numpy as np

    return np.array([math.lgamma(i + 1) for i in range(population_size + 1)])


def _all_groups_hold(population_size, marked, groups, size, allowed):
    """P(each of ``groups`` disjoint groups of ``size`` holders, drawn
    without replacement from ``population_size`` ids of which ``marked``
    are malicious, has a malicious count in ``allowed``).

    A chain over groups whose state is the malicious count drawn so far:
    each step applies the hypergeometric pmf of the next group, keeps the
    counts in ``allowed``, and drops states below ``1e-30`` of the step's
    largest (far below what a double sum can still see).
    """
    import numpy as np

    table = _log_factorials(population_size)
    counts = np.array(allowed)
    probability = np.ones(1)
    first = 0  # the malicious count ``probability[0]`` stands for
    for group in range(groups):
        remaining = population_size - group * size
        malicious = marked - (first + np.arange(probability.size))[:, None]
        honest = remaining - malicious
        valid = (counts <= malicious) & (size - counts <= honest)
        # Clip the invalid cells' indices into the table; ``valid`` zeroes them.
        log_pmf = (
            table[np.maximum(malicious, 0)]
            - table[counts]
            - table[np.maximum(malicious - counts, 0)]
            + table[np.maximum(honest, 0)]
            - table[size - counts]
            - table[np.maximum(honest - size + counts, 0)]
            - table[remaining]
            + table[size]
            + table[remaining - size]
        )
        weights = np.where(valid, np.exp(np.where(valid, log_pmf, 0.0)), 0.0)
        moved = np.zeros(probability.size + size)
        for column, drawn in enumerate(allowed):
            moved[drawn : drawn + probability.size] += probability * weights[:, column]
        largest = moved.max()
        if largest == 0.0:
            return 0.0
        kept = np.flatnonzero(moved >= largest * 1e-30)
        probability = moved[kept[0] : kept[-1] + 1]
        first += int(kept[0])
    return float(probability.sum())


def finite_resilience(
    scheme: str,
    malicious_rate: float,
    replication: int,
    path_length: int,
    population_size: int,
) -> ResiliencePair:
    """Exact (Rr, Rd) of the finite-population experiment behind Fig. 6.

    The experiment marks exactly ``M = round(N * p)`` of ``N`` ids
    malicious and places ``k * l`` distinct holders, so the holders'
    malicious counts per group are hypergeometric, not binomial as in
    Eqs. 1-3 (which are its ``N -> infinity`` limit):

    - release-ahead succeeds when each of the ``l`` columns of ``k``
      holders has a malicious one (Eq. 1's event);
    - a node-disjoint drop succeeds when each of the ``k`` rows of ``l``
      holders has one (Eq. 2's);
    - a node-joint drop is resisted when each column has fewer than ``k``
      (Eq. 3's).

    ``scheme`` is ``"central"`` (the ``k = l = 1`` grid, whatever ``k``
    and ``l`` are given), ``"disjoint"`` or ``"joint"``.
    """
    p, k, l = _validated(malicious_rate, replication, path_length)
    check_positive_int(population_size, "population_size")
    if scheme == "central":
        k = l = 1
    elif scheme not in ("disjoint", "joint"):
        raise ValueError(
            f"scheme must be 'central', 'disjoint' or 'joint', got {scheme!r}"
        )
    if k * l > population_size:
        raise ValueError(
            f"population of {population_size} cannot supply {k * l} "
            f"distinct holders"
        )
    marked = round(population_size * p)
    release = 1.0 - _all_groups_hold(
        population_size, marked, l, k, range(1, k + 1)
    )
    if scheme == "disjoint":
        drop = 1.0 - _all_groups_hold(
            population_size, marked, k, l, range(1, l + 1)
        )
    else:
        drop = _all_groups_hold(population_size, marked, l, k, range(k))
    # ``1 - chain`` can land an ulp or so outside [0, 1].
    return ResiliencePair(
        release=min(max(release, 0.0), 1.0), drop=min(max(drop, 0.0), 1.0)
    )

