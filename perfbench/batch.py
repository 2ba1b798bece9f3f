"""The three batch workloads: one pass is a fixed list of public calls.

Each op is one call a user of the library would make.  A pass runs the
ops in order, each against a fresh memory-only ``EngineCache`` (a warm
cache rebuilds nothing), and returns per-op wall times plus the outputs
the correctness gate compares with ``reference.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

MEMORIES = (48, 192, 768, 3072)
TOPOLOGIES = ("uniform", "fat-tree:4x4", "torus:4x4", "gpu:2x8")
CIRCULANT_NS = (28, 30, 32)

#: An op: (label, call) where call(cache) returns the op's checked output.
Op = tuple[str, Callable[[Any], Any]]


@dataclass
class PassResult:
    op_seconds: list[tuple[str, float]]
    outputs: dict[str, Any]
    cache_stats: dict[str, int]
    wall: float


def run_pass(ops: list[Op]) -> PassResult:
    """One pass; each op gets its own fresh memory-only cache.

    An op that raises is recorded with the exception as its output, which
    the correctness gate then counts as a failure.
    """
    from repro.engine.cache import CacheStats, EngineCache

    stats = CacheStats()
    op_seconds: list[tuple[str, float]] = []
    outputs: dict[str, Any] = {}
    start = time.perf_counter()
    for label, call in ops:
        cache = EngineCache(disk=False)
        t0 = time.perf_counter()
        try:
            outputs[label] = call(cache)
        except Exception as exc:  # counted as a failed op, not a crash
            outputs[label] = f"raised {type(exc).__name__}: {exc}"
        op_seconds.append((label, time.perf_counter() - t0))
        stats.merge(cache.stats_snapshot())
    wall = time.perf_counter() - start
    return PassResult(op_seconds, outputs, stats.as_dict(), wall)


# ---------------------------------------------------------------------- #
# expansion_grid                                                          #
# ---------------------------------------------------------------------- #


def _grid_rows(report: Any) -> list[list[Any]]:
    return [
        [r["scheme"], r["k"], r["M"], r["policy"], r["h_lower_cert"], r["h_upper"], r["provenance"]]
        for r in report.rows
    ]


def expansion_grid_ops(seed: int) -> list[Op]:
    from repro.engine.grid import GridSpec, run_grid

    del seed  # the grid has no random inputs
    specs = {
        "grid.auto_square": GridSpec.from_ranges(("strassen", "winograd"), 5, MEMORIES),
        "grid.auto_rect": GridSpec.from_ranges(
            ("classical3", "strassen122", "hybrid4", "strassen2x"), 2, MEMORIES
        ),
        "grid.spectral_dec5": GridSpec(("strassen", "winograd"), (5,), MEMORIES, ("spectral",)),
    }
    return [
        (label, lambda cache, spec=spec: _grid_rows(run_grid(spec, workers=1, cache=cache)))
        for label, spec in specs.items()
    ]


def expansion_grid_warmup() -> None:
    """First-call costs (lazy imports, ARPACK start-up) users pay once per process."""
    from repro.engine.cache import EngineCache
    from repro.engine.grid import GridSpec, run_grid

    run_grid(GridSpec(("strassen",), (1, 3), (48,), ("spectral",)), cache=EngineCache(disk=False))


# ---------------------------------------------------------------------- #
# parallel_costs                                                          #
# ---------------------------------------------------------------------- #


def _caps_sweep(cache: Any) -> list[list[Any]]:
    from repro.experiments.table1 import caps_memory_sweep

    del cache  # the experiment functions simulate directly, uncached
    result = caps_memory_sweep(n=112)
    return [[r["schedule"], r["measured_words"], r["mem_peak"], r["verified"]] for r in result["rows"]]


def _table1(cache: Any) -> list[list[Any]]:
    from repro.experiments.table1 import table1_summary

    del cache
    return [[r["regime"], r["class"], r["algorithm"], r["measured_words"]] for r in table1_summary(n=64)]


def _scaling(cache: Any, seed: int) -> list[list[Any]]:
    from repro.engine.scaling import ScalingSpec, scaling_sweep
    from repro.parallel.base import available_parallel

    spec = ScalingSpec(algos=tuple(available_parallel()), n=112, p_max=256, seed=seed)
    return [
        [r["label"], r["p"], r["c"], r["measured_words"], r["measured_messages"], r["mem_peak"], r["verified"]]
        for r in scaling_sweep(spec, cache=cache).rows
    ]


def _plan(cache: Any, topology: str) -> dict[str, Any]:
    from repro.engine.planner import plan_report
    from repro.topology import Topology

    return plan_report(56, topology=Topology.parse(topology), cache=cache)["winners"]


def parallel_costs_ops(seed: int) -> list[Op]:
    ops: list[Op] = [
        ("costs.caps_memory_sweep", _caps_sweep),
        ("costs.table1_summary", _table1),
        ("costs.scaling_sweep", lambda cache: _scaling(cache, seed)),
    ]
    ops += [(f"costs.plan_report.{t}", lambda cache, t=t: _plan(cache, t)) for t in TOPOLOGIES]
    return ops


def parallel_costs_warmup() -> None:
    from repro.experiments.table1 import table1_summary

    table1_summary(n=16)


# ---------------------------------------------------------------------- #
# exact_certify                                                           #
# ---------------------------------------------------------------------- #


def _exact(n: int, jobs: int) -> list[Any]:
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.exact import exact_edge_expansion_v2

    h, mask = exact_edge_expansion_v2(layered_circulant_cdag(n), jobs=jobs)
    return [h, int(mask.sum()), "".join("1" if b else "0" for b in mask)]


def _estimate(cache: Any, jobs: int) -> list[Any]:
    from repro.engine.builders import cached_estimate

    est = cached_estimate("classical122", 2, cache=cache, jobs=jobs)
    return [est.lower, est.upper, est.witness_size, est.method]


def exact_certify_ops(seed: int) -> list[Op]:
    del seed  # fixed graphs: exact h has no random inputs
    ops: list[Op] = []
    for jobs in (2, 1):
        ops += [(f"exact.circulant{n}.jobs{jobs}", lambda cache, n=n, j=jobs: _exact(n, j)) for n in CIRCULANT_NS]
        ops.append((f"exact.classical122_dec2.jobs{jobs}", lambda cache, j=jobs: _estimate(cache, j)))
    return ops


def exact_certify_warmup() -> None:
    """Boot the 2-worker shared pool and run one pooled batch on it."""
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.exact import exact_edge_expansion_v2
    from repro.engine import pool

    pool.prewarm(2)
    exact_edge_expansion_v2(layered_circulant_cdag(24), jobs=2)


def exact_certify_check(outputs: dict[str, Any]) -> list[str]:
    """jobs=1 and jobs=2 must agree bit for bit (h and witness mask)."""
    problems = []
    for label, value in outputs.items():
        if label.endswith(".jobs2"):
            other = outputs.get(label[: -len("jobs2")] + "jobs1")
            if other != value:
                problems.append(f"{label}: jobs=2 gave {value!r}, jobs=1 gave {other!r}")
    return problems


BATCH = {
    "expansion_grid": (expansion_grid_ops, expansion_grid_warmup),
    "parallel_costs": (parallel_costs_ops, parallel_costs_warmup),
    "exact_certify": (exact_certify_ops, exact_certify_warmup),
}
