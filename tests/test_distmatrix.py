"""Tests for the grid/block-distribution helpers (repro.machine.distmatrix)."""

import numpy as np
import pytest

from repro.machine.distmatrix import Grid2D, Grid3D, distribute_blocks, gather_blocks
from repro.machine.distributed import Machine
from repro.util.matgen import structured_matrix


class TestGrid2D:
    def test_rank_roundtrip(self):
        g = Grid2D(4)
        for i in range(4):
            for j in range(4):
                assert g.coords(g.rank(i, j)) == (i, j)

    def test_wraparound(self):
        g = Grid2D(4)
        assert g.rank(-1, 0) == g.rank(3, 0)
        assert g.rank(0, 5) == g.rank(0, 1)

    def test_rows_and_cols_partition(self):
        g = Grid2D(3)
        all_ranks = sorted(r for i in range(3) for r in g.row(i))
        assert all_ranks == list(range(9))
        all_ranks = sorted(r for j in range(3) for r in g.col(j))
        assert all_ranks == list(range(9))

    def test_p(self):
        assert Grid2D(5).p == 25


class TestGrid3D:
    def test_rank_roundtrip(self):
        g = Grid3D(3, 2)
        for i in range(3):
            for j in range(3):
                for layer in range(2):
                    assert g.coords(g.rank(i, j, layer)) == (i, j, layer)

    def test_fiber_spans_layers(self):
        g = Grid3D(2, 4)
        fiber = g.fiber(1, 0)
        assert len(fiber) == 4
        assert len(set(fiber)) == 4

    def test_p(self):
        assert Grid3D(4, 2).p == 32


class TestDistributeGather:
    def test_roundtrip_preserves_matrix(self):
        n, q = 12, 3
        X = structured_matrix(n, kind="index")
        grid = Grid2D(q)
        m = Machine(grid.p)
        distribute_blocks(m, X, "X", grid)
        back = gather_blocks(m, "X", grid, n)
        assert np.array_equal(back, X)

    def test_blocks_are_correct_slices(self):
        n, q = 8, 2
        X = structured_matrix(n, kind="index")
        grid = Grid2D(q)
        m = Machine(grid.p)
        distribute_blocks(m, X, "X", grid)
        assert np.array_equal(m.get_rows([grid.rank(1, 0)], "X")[0], X[4:, :4])

    def test_layer_rank_override(self):
        n, q = 8, 2
        X = structured_matrix(n, kind="index")
        grid3 = Grid3D(q, 3)
        face = Grid2D(q)
        m = Machine(grid3.p)
        distribute_blocks(m, X, "X", face, layer_rank=lambda i, j: grid3.rank(i, j, 2))
        # blocks live on layer 2, not layer 0
        assert m.has(grid3.rank(0, 0, 2), "X")
        assert not m.has(grid3.rank(0, 0, 0), "X")
        back = gather_blocks(m, "X", face, n, layer_rank=lambda i, j: grid3.rank(i, j, 2))
        assert np.array_equal(back, X)

    def test_indivisible_rejected(self):
        m = Machine(4)
        with pytest.raises(ValueError, match="not divisible"):
            distribute_blocks(m, np.zeros((7, 7)), "X", Grid2D(2))

    def test_distribution_is_free(self):
        # initial layout costs nothing (the model's assumption, §1.1)
        n, q = 8, 2
        grid = Grid2D(q)
        m = Machine(grid.p)
        distribute_blocks(m, structured_matrix(n), "X", grid)
        assert m.critical_words == 0
        assert m.log.n_supersteps == 0
