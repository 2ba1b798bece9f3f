"""The "2.5D" algorithm [Solomonik & Demmel 2011] — Table I row 3.

Interpolates between 2D and 3D with a replication factor ``1 ≤ c ≤ p^(1/3)``:
``p = q²·c`` processors as c layers of q×q grids, ``M = Θ(c·n²/p)`` words
each.  A and B are replicated across the c layers; each layer executes a
1/c slice of Cannon's shift rounds starting from a layer-specific offset;
C partials are reduced across layers.

Per-processor bandwidth ``Θ(n²/√(c·p))`` — at c=1 this *is* Cannon, at
c=p^(1/3) it matches 3D, which is the §6.1 story the E10 sweep reproduces.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme
from repro.machine.collectives import broadcast_many, reduce_many, shift_many
from repro.machine.distmatrix import Grid2D, distribute_blocks, gather_blocks
from repro.machine.distributed import Machine
from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    check_block_divisibility,
    register_parallel,
    square_grid_side,
)

__all__ = ["Two5D"]


def _grid_side(name: str, p: int, c: int) -> int:
    """q with p = q²·c, or a clear error."""
    if c < 1:
        raise ValueError(f"{name}: replication factor must be >= 1 (got c={c})")
    if p < 1 or p % c != 0:
        raise ValueError(f"{name}: p={p} must be q²·c with c={c} dividing it")
    try:
        return square_grid_side(name, p // c)
    except ValueError:
        raise ValueError(
            f"{name}: p={p} is not q²·c for replication factor c={c} "
            f"(p/c={p // c} is not a perfect square)"
        ) from None


@register_parallel
class Two5D(ParallelAlgorithm):
    """c replicated layers of Cannon rounds — the tunable-memory algorithm."""

    name = "2.5d"
    algorithm_class = "classical"
    regime = "2.5D"
    requirement = "p = q²·c (c layers of a square grid), c | q, q | n"
    attains = "Ω(n²/(c^(1/2)·p^(1/2))) at M = Θ(c·n²/p)  [Table I row 3, classical]"
    supports_replication = True

    def validate(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> None:
        q = _grid_side(self.name, p, c)
        if q % c != 0:
            raise ValueError(
                f"{self.name}: grid side q={q} must be divisible by the "
                f"replication factor c={c} (each layer runs q/c shift rounds)"
            )
        check_block_divisibility(self.name, n, q)

    def analytic_costs(
        self, n: int, p: int, *, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> AnalyticCost:
        # Replication broadcasts + reduction: 3·⌈lg c⌉ supersteps of b²;
        # skew (2 × 2b²) + shifts (2(q/c − 1) × 2b²) = 4(q/c)·b² — at c=1
        # exactly Cannon's 4b²q.
        q = _grid_side(self.name, p, c)
        b2 = (n / q) ** 2
        lg = math.ceil(math.log2(c)) if c > 1 else 0
        shift_part = 4.0 * (q // c) if q > 1 else 0.0
        return AnalyticCost(
            words=(3.0 * lg + shift_part) * b2,
            messages=3.0 * lg + shift_part,
            memory=4.0 * b2,  # A, B, Cpart, C — b² = c·n²/p per block
        )

    def default_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: BilinearScheme | None = None,
    ) -> list[dict]:
        out = []
        for c in sorted(set(cs)):
            if c < 1:
                raise ValueError(f"{self.name}: replication factor c={c} must be at least 1")
            for q in range(2, math.isqrt(max(p_max // c, 0)) + 1):
                if n % q == 0 and q % c == 0 and q * q * c <= p_max:
                    out.append({"p": q * q * c, "c": c})
        return out

    def result_label(
        self, *, p: int, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> str:
        return f"2.5d(c={c})"

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
        q = _grid_side(self.name, p, c)
        face = Grid2D(q)
        b = n // q
        # ranks[layer, i, j] = Grid3D(q, c).rank(i, j, layer); layer 0 is the
        # face grid.
        ranks = np.arange(p).reshape(c, q, q)
        flat = ranks.ravel()

        distribute_blocks(m, A, "A", face)
        distribute_blocks(m, B, "B", face)

        # Replicate A and B across the c layers (all fibers broadcast at once).
        fiber = ranks.transpose(1, 2, 0).reshape(q * q, c)     # row (i, j): its c layers
        fibers = list(zip(fiber, fiber[:, 0]))
        broadcast_many(m, fibers, "A", label="replA")
        broadcast_many(m, fibers, "B", label="replB")

        # Layer layer performs Cannon rounds k = layer·(q/c) .. (layer+1)·(q/c) − 1.  The
        # alignment for its first round uses A_{i, j+i+layer·q/c} and
        # B_{i+j+layer·q/c, j}: a layer-dependent rotation, realized as one
        # permutation superstep across all layers (fully connected model).
        rounds = q // c
        if q > 1:
            layer, i, j = np.indices((c, q, q))
            off = layer * rounds
            m.exchange_rows(flat, ranks[layer, i, (j - i - off) % q], "A",
                            m.get_rows(flat, "A"), label="skewA", stacked=False)
            m.exchange_rows(flat, ranks[layer, (i - j - off) % q, j], "B",
                            m.get_rows(flat, "B"), label="skewB", stacked=False)

        m.put_rows(flat, "Cpart", np.zeros((p, b, b)))

        for k in range(rounds):
            m.put_rows(flat, "Cpart", m.get_rows(flat, "Cpart")
                       + m.get_rows(flat, "A") @ m.get_rows(flat, "B"))
            m.flop_rows(flat, 2 * b * b * b)
            m.end_compute_phase()
            if k < rounds - 1:
                shift_many(m, ranks.reshape(c * q, q), "A", -1, label="shiftA")
                shift_many(m, ranks.transpose(0, 2, 1).reshape(c * q, q), "B", -1,
                           label="shiftB")

        # Reduce C partials across layers onto layer 0 (all fibers at once).
        reduce_many(m, fibers, "Cpart", "C", label="reduceC")

        return gather_blocks(m, "C", face, n)
