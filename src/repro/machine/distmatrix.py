"""Block-distributed matrices on the simulated machine (2D grids).

The classical parallel algorithms (Cannon, SUMMA, 3D, 2.5D) all view the
machine as a logical grid and own one square block per processor.  This
module provides the grid arithmetic and the free *initial* distribution
(the model assumes inputs start evenly distributed, §1.1, so placing the
blocks costs nothing) plus the free final gather used only to verify the
numerics against ``A @ B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.distributed import Machine

__all__ = ["Grid2D", "Grid3D", "distribute_blocks", "gather_blocks"]


@dataclass(frozen=True)
class Grid2D:
    """A q×q logical processor grid over ranks [0, q²)."""

    q: int

    @property
    def p(self) -> int:
        return self.q * self.q

    def rank(self, i: int, j: int) -> int:
        """Rank of grid position (i, j), row-major, indices taken mod q."""
        return (i % self.q) * self.q + (j % self.q)

    def coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.q)

    def row(self, i: int) -> list[int]:
        """Ranks of grid row i."""
        return [self.rank(i, j) for j in range(self.q)]

    def col(self, j: int) -> list[int]:
        """Ranks of grid column j."""
        return [self.rank(i, j) for i in range(self.q)]


@dataclass(frozen=True)
class Grid3D:
    """A q×q×c logical grid over ranks [0, q²·c); layer 0 owns the inputs."""

    q: int
    c: int

    @property
    def p(self) -> int:
        return self.q * self.q * self.c

    def rank(self, i: int, j: int, layer: int) -> int:
        return (layer % self.c) * self.q * self.q + (i % self.q) * self.q + (j % self.q)

    def coords(self, rank: int) -> tuple[int, int, int]:
        layer, r = divmod(rank, self.q * self.q)
        i, j = divmod(r, self.q)
        return i, j, layer

    def fiber(self, i: int, j: int) -> list[int]:
        """Ranks of the depth fiber through grid position (i, j)."""
        return [self.rank(i, j, layer) for layer in range(self.c)]


def _block_ranks(grid: Grid2D, layer_rank=None) -> np.ndarray:
    """``(q, q)`` array of the rank owning block (i, j)."""
    q = grid.q
    if layer_rank is None:
        return np.arange(q * q).reshape(q, q)
    return np.array([[layer_rank(i, j) for j in range(q)] for i in range(q)])


def distribute_blocks(m: Machine, X: np.ndarray, key: str, grid: Grid2D, layer_rank=None) -> None:
    """Place the q×q blocks of X on the grid (free: initial data layout),
    one row call in row-major block order.

    ``layer_rank(i, j) -> rank`` overrides the target ranks (used to put
    inputs on another layer of a deeper grid).
    """
    n = X.shape[0]
    q = grid.q
    if n % q != 0:
        raise ValueError(f"matrix size {n} not divisible by grid size {q}")
    b = n // q
    blocks = X.reshape(q, b, q, b).swapaxes(1, 2).reshape(q * q, b, b)
    m.put_rows(_block_ranks(grid, layer_rank).ravel(), key, blocks)


def gather_blocks(m: Machine, key: str, grid: Grid2D, n: int, layer_rank=None) -> np.ndarray:
    """Collect the blocks into a full matrix host-side (verification only —
    not charged; the model leaves C distributed)."""
    q = grid.q
    b = n // q
    blocks = m.get_rows(_block_ranks(grid, layer_rank).ravel(), key)
    out = np.empty((n, n))
    out.reshape(q, b, q, b)[...] = blocks.reshape(q, q, b, b).swapaxes(1, 2)
    return out
