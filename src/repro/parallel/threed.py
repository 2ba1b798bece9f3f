"""The "3D" algorithm [Dekel et al. 1981; Aggarwal et al. 1990] — Table I row 2.

``p = q³`` processors as a q×q×q grid with ``M = Θ(n²/p^(2/3))`` — a factor
``p^(1/3)`` more memory than 2D buys a factor ``p^(1/6)`` less communication:
``Θ(n²/p^(2/3))`` words per processor.

Processor (i, j, l) receives block A_{il} and B_{lj}, computes their
product, and the C_{ij} partials are summed over the depth fiber.  Inputs
start on layer 0 (evenly distributed); the replication broadcasts and the
final reductions are the *entire* communication.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme
from repro.machine.collectives import broadcast_many, reduce_many
from repro.machine.distmatrix import Grid2D, distribute_blocks, gather_blocks
from repro.machine.distributed import Machine
from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    check_block_divisibility,
    cube_grid_side,
    register_parallel,
)

__all__ = ["ThreeD"]


@register_parallel
class ThreeD(ParallelAlgorithm):
    """Replicate-multiply-reduce on a processor cube (p = q³)."""

    name = "3d"
    algorithm_class = "classical"
    regime = "3D"
    requirement = "p = q³ (processor cube), q | n"
    attains = "Ω(n²/p^(2/3)) at M = Θ(n²/p^(2/3))  [Table I row 2, classical]"

    def validate(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> None:
        q = cube_grid_side(self.name, p)
        check_block_divisibility(self.name, n, q)

    def analytic_costs(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> AnalyticCost:
        # One relay superstep per input (b² critical) + a batched binomial
        # broadcast (⌈lg q⌉ × b²) per input + the fiber reduction
        # (⌈lg q⌉ × b²): (2 + 3·⌈lg q⌉)·b² with b² = n²/p^(2/3).
        q = cube_grid_side(self.name, p)
        b2 = (n / q) ** 2
        lg = math.ceil(math.log2(q)) if q > 1 else 0
        rounds = 2 + 3 * lg if q > 1 else 0
        return AnalyticCost(
            words=rounds * b2,
            messages=float(rounds),
            memory=5.0 * b2,  # layer-0 ranks: A, B + Ablk, Bblk + Cpart
        )

    def default_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: BilinearScheme | None = None,
    ) -> list[dict]:
        out = []
        q = 2
        while q**3 <= p_max:
            if n % q == 0:
                out.append({"p": q**3, "c": 1})
            q += 1
        return out

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
        q = cube_grid_side(self.name, p)
        face = Grid2D(q)
        b = n // q
        # ranks[i, j, l] = Grid3D(q, q).rank(i, j, l); layer 0 is the face grid.
        ranks = np.arange(p).reshape(q, q, q).transpose(1, 2, 0)
        ar = np.arange(q)

        # Inputs start evenly distributed on layer 0: rank (i, j, 0) owns
        # A_ij, B_ij.
        distribute_blocks(m, A, "A", face)
        distribute_blocks(m, B, "B", face)

        # Routing: A_{il} must reach every (i, j, layer).  One relay hop to the
        # target layer, then a binomial broadcast along the layer's row —
        # each processor moves Θ(b²·lg q) words, never a q-way fan-out from
        # one rank.
        layer0 = ranks[:, :, 0].ravel()         # rank (x, y, 0), row-major in (x, y)
        # A_{il} hops from (i, l, 0) to (i, l, l).
        m.exchange_rows(layer0, ranks[:, ar, ar], "Ablk", m.get_rows(layer0, "A"),
                        label="relayA", stacked=False)
        broadcast_many(
            m,
            [(ranks[i, :, layer], ranks[i, layer, layer]) for i in range(q) for layer in range(q)],
            "Ablk",
            label="bcastA",
        )
        # B_{lj} hops from (l, j, 0) to (l, j, l).
        m.exchange_rows(layer0, ranks[ar[:, None], ar, ar[:, None]], "Bblk",
                        m.get_rows(layer0, "B"), label="relayB", stacked=False)
        broadcast_many(
            m,
            [(ranks[:, j, layer], ranks[layer, j, layer]) for layer in range(q) for j in range(q)],
            "Bblk",
            label="bcastB",
        )

        # Local multiply: (i, j, layer) computes A_{il} · B_{lj}.
        flat = np.arange(p)
        m.put_rows(flat, "Cpart", m.get_rows(flat, "Ablk") @ m.get_rows(flat, "Bblk"))
        m.flop_rows(flat, 2 * b * b * b)
        m.delete_rows(flat, "Ablk")
        m.delete_rows(flat, "Bblk")
        m.end_compute_phase()

        # Sum the partials down all fibers simultaneously onto layer 0.
        fibers = ranks.reshape(q * q, q)
        reduce_many(m, list(zip(fibers, fibers[:, 0])), "Cpart", "C", label="reduceC")

        return gather_blocks(m, "C", face, n)
