"""The experiment engine: content-addressed caching + parallel grid sweeps.

Layers (bottom up):

* :mod:`repro.engine.cache` — two-level (memory + disk) content-addressed
  artifact store keyed by scheme coefficients, depth, and build options;
* :mod:`repro.engine.builders` — cache-backed constructors for ``Dec_k C`` /
  ``H_k`` graphs, Laplacian spectra, and expansion estimates;
* :mod:`repro.engine.pool` — the process-wide persistent worker-pool
  runtime every parallel call site ships work through (warm reuse,
  zero-copy task transport, ``REPRO_POOL`` kill switch, telemetry);
* :mod:`repro.engine.grid` — the pooled (scheme, k, M, policy) sweep
  runner with aggregated cache accounting;
* :mod:`repro.engine.scaling` — the cached strong-scaling sweep over the
  parallel-algorithm registry (algorithms × p-grid × replication c);
* :mod:`repro.engine.planner` — the topology-aware auto-scheduler ranking
  registry configurations by predicted time under a memory limit;
* :mod:`repro.engine.bench` — the benchmark-workload registry, the
  ``BENCH_<tag>.json`` emitter, and the baseline-comparison gate;
* :mod:`repro.engine.cli` — the ``python -m repro`` command-line front end.

The names below resolve on first access (:mod:`repro._lazy`), so a pool
worker that imports :mod:`repro.engine.pool` loads none of the others.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.engine.cache import (
        CacheStats,
        EngineCache,
        cache_key,
        default_cache,
        default_cache_root,
        scheme_fingerprint,
        set_default_cache,
    )
    from repro.core.expansion import POLICIES
    from repro.engine.builders import (
        AUTO_SPECTRAL_LIMIT,
        cached_dec_graph,
        cached_estimate,
        cached_h_graph,
        cached_spectrum,
    )
    from repro.engine.bench import (
        BENCH_SCHEMA_VERSION,
        BenchComparison,
        BenchWorkload,
        available_benches,
        compare_benchmarks,
        get_bench,
        register_bench,
        run_bench,
        run_suite,
        selected_benches,
    )
    from repro.engine.grid import GridPoint, GridReport, GridSpec, evaluate_point, run_grid
    from repro.engine.pool import (
        PoolStats,
        max_pool_workers,
        pool_enabled,
        pool_info,
        pool_stats_snapshot,
        prewarm,
        serial_fallback_reason,
        shutdown_pool,
        submit_batch,
        submit_one,
    )
    from repro.engine.planner import (
        Plan,
        default_memory_ladder,
        enumerate_plans,
        plan,
        plan_report,
    )
    from repro.engine.scaling import (
        ScalingPoint,
        ScalingReport,
        ScalingSpec,
        evaluate_scaling_point,
        scaling_sweep,
    )

__all__ = [
    "CacheStats",
    "EngineCache",
    "cache_key",
    "default_cache",
    "default_cache_root",
    "scheme_fingerprint",
    "set_default_cache",
    "AUTO_SPECTRAL_LIMIT",
    "POLICIES",
    "cached_dec_graph",
    "cached_estimate",
    "cached_h_graph",
    "cached_spectrum",
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "BenchWorkload",
    "available_benches",
    "compare_benchmarks",
    "get_bench",
    "register_bench",
    "run_bench",
    "run_suite",
    "selected_benches",
    "GridPoint",
    "GridReport",
    "GridSpec",
    "evaluate_point",
    "run_grid",
    "PoolStats",
    "max_pool_workers",
    "pool_enabled",
    "pool_info",
    "pool_stats_snapshot",
    "prewarm",
    "serial_fallback_reason",
    "shutdown_pool",
    "submit_batch",
    "submit_one",
    "Plan",
    "default_memory_ladder",
    "enumerate_plans",
    "plan",
    "plan_report",
    "ScalingPoint",
    "ScalingReport",
    "ScalingSpec",
    "evaluate_scaling_point",
    "scaling_sweep",
]

__getattr__, __dir__ = attach(__name__)
