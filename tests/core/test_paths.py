"""Holder grid and share lattice construction."""

import pytest

from repro.core.paths import (
    HolderGrid,
    ShareLattice,
    build_grid,
)
from repro.util.rng import RandomSource


POPULATION = [f"node-{i}" for i in range(100)]


class TestHolderGrid:
    def test_shape_accessors(self):
        grid = build_grid(POPULATION, 3, 4, RandomSource(1))
        assert grid.replication == 3
        assert grid.path_length == 4
        assert len(grid.row(1)) == 4
        assert len(grid.column(2)) == 3

    def test_holders_distinct(self):
        grid = build_grid(POPULATION, 5, 10, RandomSource(2))
        holders = grid.all_holders()
        assert len(set(holders)) == 50

    def test_column_row_consistency(self):
        grid = build_grid(POPULATION, 2, 3, RandomSource(3))
        assert grid.column(2)[0] == grid.row(1)[1]
        assert grid.column(2)[1] == grid.row(2)[1]

    def test_exclusion(self):
        exclude = set(POPULATION[:90])
        grid = build_grid(POPULATION, 2, 5, RandomSource(5), exclude=exclude)
        assert not (set(grid.all_holders()) & exclude)

    def test_insufficient_population_rejected(self):
        with pytest.raises(ValueError, match="cannot supply"):
            build_grid(POPULATION[:5], 2, 3, RandomSource(6))

    def test_duplicate_holders_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HolderGrid(rows=(("a", "b"), ("a", "c")))

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            HolderGrid(rows=(("a", "b"), ("c",)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            HolderGrid(rows=())


def lattice_rows(share_count, path_length):
    return tuple(
        tuple(POPULATION[row * path_length : (row + 1) * path_length])
        for row in range(share_count)
    )


class TestShareLattice:
    def test_shape(self):
        lattice = ShareLattice(rows=lattice_rows(5, 4), thresholds=(1, 3, 3, 2))
        assert lattice.share_count == 5
        assert lattice.path_length == 4
        assert lattice.thresholds[1] == 3

    def test_threshold_per_column_required(self):
        with pytest.raises(ValueError, match="threshold"):
            ShareLattice(rows=lattice_rows(3, 4), thresholds=(1, 2))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ShareLattice(rows=(("a",), ("b",)), thresholds=(3,))

    def test_distinctness(self):
        lattice = ShareLattice(rows=lattice_rows(4, 5), thresholds=(1,) * 5)
        assert len({holder for row in lattice.rows for holder in row}) == 20
        with pytest.raises(ValueError, match="distinct"):
            ShareLattice(rows=(("a", "b"), ("a", "c")), thresholds=(1, 1))
