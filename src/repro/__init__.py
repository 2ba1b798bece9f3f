"""repro — Graph expansion and communication costs of fast matrix multiplication.

A full reproduction of Ballard, Demmel, Holtz & Schwartz, *Graph Expansion
and Communication Costs of Fast Matrix Multiplication* (SPAA 2011,
arXiv:1109.1693): the CDAG machinery and expansion analysis behind the
paper's lower bounds, exact simulators for the sequential two-level and
parallel α–β machines, the algorithms that attain the bounds (depth-first
Strassen, Cannon, SUMMA, 3D, 2.5D, CAPS), and the experiment harnesses that
regenerate every table and figure.

Quick start::

    from repro import dec_graph, estimate_expansion, dfs_io, sequential_io_bound

    g = dec_graph("strassen", k=4)               # the Dec_k C graph of §4.1
    est = estimate_expansion(g, "strassen", 4)   # Lemma 4.3's h = Θ((4/7)^k)
    io = dfs_io(n=256, M=768)                    # measured words vs Theorem 1.1
    print(io.words / sequential_io_bound(256, 768))

README.md's "Layout" section is the system inventory, and its sections
per subsystem record the paper-vs-measured results.

Every public name below resolves on first access (:mod:`repro._lazy`), so
``import repro`` loads no numpy and a pool worker imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.cdag.graph import CDAG, VertexKind
    from repro.cdag.schemes import (
        BilinearScheme,
        available_schemes,
        compose_schemes,
        get_scheme,
    )
    from repro.cdag.strassen_cdag import HGraph, dec_graph, enc_graph, h_graph
    from repro.cdag.classical_cdag import classical_matmul_cdag, matvec_cdag
    from repro.cdag.pebble import exhaustive_min_io, schedule_io
    from repro.cdag.schedule import (
        bfs_topological_order,
        dfs_topological_order,
        random_topological_order,
    )
    from repro.core.bounds import (
        LG7,
        latency_bound,
        memory_independent_bound,
        parallel_io_bound,
        perfect_scaling_limit,
        scaling_regime,
        sequential_io_bound,
        sequential_io_upper,
        table1_rows,
    )
    from repro.core.exact import exact_edge_expansion_v2
    from repro.core.expansion import (
        ExpansionEstimate,
        decode_cone_mask,
        estimate_expansion,
        expansion_of_cut,
    )
    from repro.core.partition import best_partition_bound, partition_bound, segment_stats
    from repro.algorithms.strassen import bilinear_multiply, count_flops, strassen_multiply
    from repro.algorithms.io_strassen import dfs_io, dfs_io_model
    from repro.algorithms.io_classical import blocked_io, naive_io, recursive_io
    from repro.engine.builders import (
        cached_dec_graph,
        cached_estimate,
        cached_h_graph,
        cached_spectrum,
    )
    from repro.engine.cache import EngineCache, default_cache
    from repro.engine.grid import GridPoint, GridReport, GridSpec, run_grid
    from repro.engine.planner import Plan, plan
    from repro.engine.scaling import ScalingPoint, ScalingReport, ScalingSpec, scaling_sweep
    from repro.machine.cache import FastMemory
    from repro.machine.distributed import Machine
    from repro.parallel.base import (
        AnalyticCost,
        ParallelAlgorithm,
        ParallelConfig,
        ParallelResult,
        available_parallel,
        get_parallel,
        run_parallel,
    )
    from repro.topology.model import Device, Link, Topology

__version__ = "1.0.0"

__all__ = [
    "CDAG",
    "VertexKind",
    "BilinearScheme",
    "available_schemes",
    "compose_schemes",
    "get_scheme",
    "HGraph",
    "dec_graph",
    "enc_graph",
    "h_graph",
    "classical_matmul_cdag",
    "matvec_cdag",
    "exhaustive_min_io",
    "schedule_io",
    "bfs_topological_order",
    "dfs_topological_order",
    "random_topological_order",
    "LG7",
    "latency_bound",
    "memory_independent_bound",
    "parallel_io_bound",
    "perfect_scaling_limit",
    "scaling_regime",
    "sequential_io_bound",
    "sequential_io_upper",
    "table1_rows",
    "ExpansionEstimate",
    "decode_cone_mask",
    "estimate_expansion",
    "exact_edge_expansion_v2",
    "expansion_of_cut",
    "best_partition_bound",
    "partition_bound",
    "segment_stats",
    "bilinear_multiply",
    "count_flops",
    "strassen_multiply",
    "dfs_io",
    "dfs_io_model",
    "blocked_io",
    "naive_io",
    "recursive_io",
    "EngineCache",
    "GridPoint",
    "GridReport",
    "GridSpec",
    "ScalingPoint",
    "ScalingReport",
    "ScalingSpec",
    "cached_dec_graph",
    "cached_estimate",
    "cached_h_graph",
    "cached_spectrum",
    "default_cache",
    "run_grid",
    "scaling_sweep",
    "FastMemory",
    "Machine",
    "AnalyticCost",
    "ParallelAlgorithm",
    "ParallelConfig",
    "ParallelResult",
    "available_parallel",
    "get_parallel",
    "run_parallel",
    "Device",
    "Link",
    "Topology",
    "Plan",
    "plan",
    "__version__",
]

__getattr__, __dir__ = attach(__name__)
