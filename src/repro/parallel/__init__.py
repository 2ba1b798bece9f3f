"""Parallel algorithms on the simulated machine: Table I's attaining algorithms.

All five algorithms live in one registry behind the planner-first split
API — a pure cost estimate and a simulation, both driven by one frozen
:class:`ParallelConfig` record::

    from repro.parallel import ParallelConfig, get_parallel

    cfg = ParallelConfig(n=56, p=49, scheme="strassen")
    get_parallel("caps").estimate(cfg)          # AnalyticCost — no arrays
    get_parallel("caps").execute(A, B, cfg)     # ParallelResult — simulation

``run_parallel(name, A, B, p=...)`` is the keyword convenience that builds
the ``ParallelConfig`` from the operands and calls ``execute``.
"""

from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    ParallelConfig,
    ParallelResult,
    available_parallel,
    get_parallel,
    register_parallel,
    run_parallel,
)
from repro.parallel.caps import quadtree_permutation, validate_caps_geometry

__all__ = [
    "AnalyticCost",
    "ParallelAlgorithm",
    "ParallelConfig",
    "ParallelResult",
    "available_parallel",
    "get_parallel",
    "register_parallel",
    "run_parallel",
    "quadtree_permutation",
    "validate_caps_geometry",
]
