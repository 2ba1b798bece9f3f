"""Machine models: the sequential two-level memory and the parallel α–β machine.

Algorithms drive :class:`Machine` only through its rank-array row calls.
The package re-exports the three collectives built on them, all in batched
form (``broadcast_many``, ``reduce_many``, ``shift_many``): each runs over a
list of disjoint groups, and a single collective is the one-group case.
"""

from repro.machine.cache import FastMemory, Region, streamed_add_cost
from repro.machine.counters import CommLog, IOCounter, SuperstepRecord
from repro.machine.distributed import Machine
from repro.machine.collectives import broadcast_many, reduce_many, shift_many
from repro.machine.distmatrix import Grid2D, Grid3D, distribute_blocks, gather_blocks

__all__ = [
    "FastMemory",
    "Region",
    "streamed_add_cost",
    "CommLog",
    "IOCounter",
    "SuperstepRecord",
    "Machine",
    "broadcast_many",
    "reduce_many",
    "shift_many",
    "Grid2D",
    "Grid3D",
    "distribute_blocks",
    "gather_blocks",
]
