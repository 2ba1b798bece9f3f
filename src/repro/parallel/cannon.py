"""Cannon's algorithm [Cannon 1969] — the classical "2D" algorithm of Table I.

``p = q²`` processors in a torus, one ``(n/q)²`` block of each matrix per
processor (minimal memory, ``M = Θ(n²/p)``, no replication — the first row
of Table I).  Initial skew aligns the blocks; then q shift-multiply rounds.

Per-processor communication: 2(q−1) block transfers ≈ ``2n²/√p`` words —
attaining the classical 2D lower bound ``Ω(n²/p^(1/2))``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme
from repro.machine.collectives import shift_many
from repro.machine.distmatrix import Grid2D, distribute_blocks, gather_blocks
from repro.machine.distributed import Machine
from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    check_block_divisibility,
    register_parallel,
    square_grid_side,
)

__all__ = ["Cannon"]


@register_parallel
class Cannon(ParallelAlgorithm):
    """Torus shift-multiply: the minimal-memory 2D attaining algorithm."""

    name = "cannon"
    algorithm_class = "classical"
    regime = "2D"
    requirement = "p = q² (square grid), q | n"
    attains = "Ω(n²/p^(1/2)) at M = Θ(n²/p)  [Table I row 1, classical]"

    def validate(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> None:
        q = square_grid_side(self.name, p)
        check_block_divisibility(self.name, n, q)

    def analytic_costs(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> AnalyticCost:
        # 2 skew permutations (2b² each) + 2(q−1) shift rounds (2b² each)
        # = exactly 4b²q = 4n²/√p critical words; 2 messages per superstep.
        q = math.isqrt(p)
        b2 = (n / q) ** 2
        if q == 1:
            return AnalyticCost(words=0.0, messages=0.0, memory=3.0 * b2)
        return AnalyticCost(words=4.0 * q * b2, messages=4.0 * q, memory=3.0 * b2)

    def default_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: BilinearScheme | None = None,
    ) -> list[dict]:
        return [
            {"p": q * q, "c": 1}
            for q in range(2, math.isqrt(p_max) + 1)
            if n % q == 0
        ]

    def _execute(
        self,
        m: Machine,
        A: np.ndarray,
        B: np.ndarray,
        *,
        p: int,
        c: int,
        scheme: BilinearScheme | None,
        **options: Any,
    ) -> np.ndarray:
        n = A.shape[0]
        q = math.isqrt(p)
        grid = Grid2D(q)
        distribute_blocks(m, A, "A", grid)
        distribute_blocks(m, B, "B", grid)
        b = n // q
        ranks = np.arange(p).reshape(q, q)      # ranks[i, j] = grid.rank(i, j)
        flat = ranks.ravel()

        # C starts at zero on every rank.
        m.put_rows(flat, "C", np.zeros((p, b, b)))

        # Skew: row i rotates A left by i, column j rotates B up by j.  In
        # the paper's machine model (§1.1: any disjoint pairs communicate
        # simultaneously, no topology) each skew is a single permutation
        # superstep — every rank sends one block and receives one block.
        if q > 1:
            i, j = np.indices((q, q))
            m.exchange_rows(flat, ranks[i, (j - i) % q], "A", m.get_rows(flat, "A"),
                            label="skewA", stacked=False)
            m.exchange_rows(flat, ranks[(i - j) % q, j], "B", m.get_rows(flat, "B"),
                            label="skewB", stacked=False)

        for _round in range(q):
            m.put_rows(flat, "C", m.get_rows(flat, "C")
                       + m.get_rows(flat, "A") @ m.get_rows(flat, "B"))
            m.flop_rows(flat, 2 * b * b * b)
            m.end_compute_phase()
            if _round < q - 1:
                shift_many(m, ranks, "A", -1, label="shiftA")
                shift_many(m, ranks.T, "B", -1, label="shiftB")

        return gather_blocks(m, "C", grid, n)
