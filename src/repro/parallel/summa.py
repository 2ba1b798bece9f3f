"""SUMMA — broadcast-based 2D matrix multiplication (van de Geijn & Watts).

The other canonical "2D" algorithm: same minimal memory as Cannon, but the
k-th step broadcasts A's k-th block column along grid rows and B's k-th
block row along grid columns.  Bandwidth ``Θ(n²·lg q/√p)`` with tree
broadcasts — the lg factor over Cannon is visible in the E6 table, a nice
demonstration that *attaining* a lower bound is a property of the specific
algorithm, not the memory regime.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme
from repro.machine.collectives import broadcast_many
from repro.machine.distmatrix import Grid2D, distribute_blocks, gather_blocks
from repro.machine.distributed import Machine
from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    check_block_divisibility,
    register_parallel,
    square_grid_side,
)

__all__ = ["Summa"]


@register_parallel
class Summa(ParallelAlgorithm):
    """Row/column broadcast 2D algorithm — pays a lg q factor over Cannon."""

    name = "summa"
    algorithm_class = "classical"
    regime = "2D"
    requirement = "p = q² (square grid), q | n"
    attains = "O(n²·lg p/p^(1/2)) at M = Θ(n²/p)  [2D cell up to the lg factor]"

    def validate(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> None:
        q = square_grid_side(self.name, p)
        check_block_divisibility(self.name, n, q)

    def analytic_costs(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> AnalyticCost:
        # Per round k: two batched binomial broadcasts of one b² panel each,
        # ⌈lg q⌉ supersteps apiece with critical charge b² (disjoint
        # sender/receiver sets within a superstep); q rounds total.
        q = math.isqrt(p)
        b2 = (n / q) ** 2
        lg = math.ceil(math.log2(q)) if q > 1 else 0
        return AnalyticCost(
            words=2.0 * q * lg * b2,
            messages=2.0 * q * lg,
            memory=5.0 * b2,  # A, B, C + the two in-flight panels
        )

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
        m.put_rows(flat, "C", np.zeros((p, b, b)))

        for k in range(q):
            # Broadcast A[:, k] along every row and B[k, :] along every
            # column (all q row-broadcasts proceed simultaneously, likewise
            # columns).
            m.put_rows(ranks[:, k], "Apanel", m.get_rows(ranks[:, k], "A"))
            broadcast_many(m, list(zip(ranks, ranks[:, k])), "Apanel", label="bcastA")
            m.put_rows(ranks[k], "Bpanel", m.get_rows(ranks[k], "B"))
            broadcast_many(m, list(zip(ranks.T, ranks[k])), "Bpanel", label="bcastB")
            m.put_rows(flat, "C", m.get_rows(flat, "C")
                       + m.get_rows(flat, "Apanel") @ m.get_rows(flat, "Bpanel"))
            m.flop_rows(flat, 2 * b * b * b)
            m.delete_rows(flat, "Apanel")
            m.delete_rows(flat, "Bpanel")
            m.end_compute_phase()

        return gather_blocks(m, "C", grid, n)
