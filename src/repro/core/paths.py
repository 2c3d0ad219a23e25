"""Pseudo-random holder structures: grids and share lattices.

The sender selects holders *pseudo-randomly* (paper §III).
:func:`build_grid` draws them directly from a population sequence: node
indices in the adaptive game (the paper's own evaluation works at this
level too: it marks ``10000 * p`` nodes malicious and samples holders among
the 10,000), the overlay's live node ids in the end-to-end multipath
sender.  The key-share sender resolves random targets by DHT lookup
instead (:class:`~repro.core.sender.DataSender`).

All structures guarantee *node-disjointness across the whole structure*:
one physical node never appears twice, matching the paper's figures where
every ``H_{i,j}`` is distinct (and required for Eqs. 1-3's independence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Set

from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class HolderGrid:
    """A ``k x l`` grid of distinct holders.

    ``rows[i][j]`` is holder ``H_{i+1, j+1}`` — the ``(j+1)``-th holder on
    the ``(i+1)``-th path.  The same structure serves both multipath
    schemes; only the *forwarding rule* differs (rows for node-disjoint,
    full column fan-out for node-joint), which the schemes own.
    """

    rows: tuple  # tuple of tuples of holder ids

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("grid must have at least one row and one column")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise ValueError(f"ragged grid: row widths {sorted(widths)}")
        flat = [holder for row in self.rows for holder in row]
        if len(set(flat)) != len(flat):
            raise ValueError("grid holders must be distinct nodes")

    @property
    def replication(self) -> int:
        """``k`` — the number of paths."""
        return len(self.rows)

    @property
    def path_length(self) -> int:
        """``l`` — holders per path."""
        return len(self.rows[0])

    def row(self, index: int) -> Sequence[Hashable]:
        """Path ``index`` (1-based)."""
        return self.rows[index - 1]

    def column(self, index: int) -> List[Hashable]:
        """Column ``index`` (1-based): the holders replicating key ``K_index``."""
        return [row[index - 1] for row in self.rows]

    def all_holders(self) -> List[Hashable]:
        return [holder for row in self.rows for holder in row]


@dataclass(frozen=True)
class ShareLattice:
    """The key-share routing structure (paper Fig. 5).

    ``n`` rows by ``l`` columns of distinct holders; every column ``j``'s
    layer key is split ``(m_j, n)`` and each row carries one share.  The
    per-column thresholds come from Algorithm 1 and may differ by column.
    """

    rows: tuple  # n rows of l holders each
    thresholds: tuple  # one threshold m_j per column, len == l

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("lattice must have at least one row and one column")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise ValueError(f"ragged lattice: row widths {sorted(widths)}")
        if len(self.thresholds) != len(self.rows[0]):
            raise ValueError(
                f"need one threshold per column: "
                f"{len(self.thresholds)} thresholds, {len(self.rows[0])} columns"
            )
        for column_index, threshold in enumerate(self.thresholds, start=1):
            if not 1 <= threshold <= len(self.rows):
                raise ValueError(
                    f"column {column_index} threshold {threshold} outside "
                    f"[1, {len(self.rows)}]"
                )
        flat = [holder for row in self.rows for holder in row]
        if len(set(flat)) != len(flat):
            raise ValueError("lattice holders must be distinct nodes")

    @property
    def share_count(self) -> int:
        """``n`` — shares (rows) per column."""
        return len(self.rows)

    @property
    def path_length(self) -> int:
        """``l``."""
        return len(self.rows[0])


def build_grid(
    population: Sequence[Hashable],
    replication: int,
    path_length: int,
    rng: RandomSource,
    exclude: Optional[Set[Hashable]] = None,
) -> HolderGrid:
    """Sample a ``replication x path_length`` grid from ``population``.

    Sampling is without replacement across the whole grid (node-disjoint).
    ``exclude`` removes e.g. the sender and receiver from candidacy.
    """
    check_positive_int(replication, "replication")
    check_positive_int(path_length, "path_length")
    candidates = _eligible(population, exclude)
    needed = replication * path_length
    if len(candidates) < needed:
        raise ValueError(
            f"population of {len(candidates)} eligible nodes cannot supply "
            f"{needed} distinct holders"
        )
    chosen = rng.sample(candidates, needed)
    rows = tuple(
        tuple(chosen[i * path_length : (i + 1) * path_length])
        for i in range(replication)
    )
    return HolderGrid(rows=rows)


def _eligible(
    population: Sequence[Hashable], exclude: Optional[Set[Hashable]]
) -> Sequence[Hashable]:
    if exclude:
        return [node for node in population if node not in exclude]
    # No copy: ``random.sample`` draws identically from any same-length
    # sequence, so a ``range`` population never needs materialising.
    return population
