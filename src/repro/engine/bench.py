"""The benchmark subsystem: registered workloads, measured runs, baselines.

This module makes the benchmark workloads first-class objects, mirroring
the parallel-algorithm registry: a :func:`register_bench` decorator
collects named workloads (exact expansion, sequential-IO sweeps, the cold
grid sweep, the worker pool, Table I and CAPS costs, the serve load test),
one harness times them, and the result is a machine-readable
``BENCH_<tag>.json`` that ``python -m repro bench --compare`` can gate
regressions against — timings within a threshold, each workload's
``check`` block exactly.

Each workload has one parameter set, sized so its wall time sits well
above a shared runner's noise floor; every timed round gets a fresh
memory-only engine cache.  Full-scale timing is perfbench's job, not this
module's.

``BENCH_*.json`` schema (``BENCH_SCHEMA_VERSION = 4``)
------------------------------------------------------

Top level::

    schema_version   int    — this format's version (bump on shape changes)
    tag              str    — run label ("ci", "local", a commit sha, ...)
    created_unix     float  — time.time() at run start
    host             object — platform fingerprint:
        platform, machine, python, numpy, scipy, cpus
    workloads        object — one entry per workload, keyed by name:

Per workload::

    params           object — the exact parameter set the run used
    rounds           int    — number of timed rounds
    seconds          object — wall-clock stats over the timed rounds:
        raw (list, round order), min, max, mean, p50, p90
    peak_rss_kb      int    — process high-water RSS after the workload
                              (ru_maxrss; monotone across the process, so
                              comparable only within one run's ordering)
    cache            object — engine-cache counter increments summed over
                              the timed rounds: hits, misses, stores,
                              builds, disk_errors, evictions
    pool             object — worker-pool counter increments during the
                              timed rounds (see ``repro.engine.pool``):
                              pool_starts, workers_spawned, tasks_dispatched,
                              warm_dispatches, respawns, serial_tasks
    metrics          object — optional workload-reported numbers (the serve
                              load test's requests/sec and p50/p99 latency
                              land here); informational, never gated
    check            object — scalar "science" outputs of the workload
                              (JSON numbers/strings/bools, possibly nested
                              in lists/objects).  --compare verifies these
                              against the baseline: timings may drift,
                              results must not.

Regression gating: :func:`compare_benchmarks` joins two such documents on
workload name and flags ``current.seconds.min / baseline.seconds.min >
threshold`` as a regression (and check-value drift as a mismatch); the CLI
exits non-zero when any gate fails.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time

try:
    import resource
except ImportError:  # non-POSIX platforms: RSS reporting degrades to 0
    resource = None
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from repro.engine.grid import GridSpec

import numpy as np

from repro.engine import pool as pool_runtime
from repro.engine.cache import CacheStats, EngineCache
from repro.util.jsonutil import jsonable as _jsonable

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchWorkload",
    "ComparisonRow",
    "BenchComparison",
    "register_bench",
    "get_bench",
    "available_benches",
    "selected_benches",
    "run_bench",
    "run_suite",
    "host_fingerprint",
    "write_bench_file",
    "load_bench_file",
    "compare_benchmarks",
    "render_comparison",
]

#: Version of the BENCH_*.json document layout (see the module docstring).
#: v2: the per-workload ``cache`` block gained the ``disk_errors`` and
#: ``evictions`` counters, and workloads may attach an ungated ``metrics``
#: object (the serve load test's throughput/latency numbers).
#: v3: every workload record carries a ``pool`` block — the shared
#: worker-pool runtime's counter increments over the timed rounds.
#: v4: one parameter set per workload and a fresh cache every round: the
#: top-level ``quick`` and the per-workload ``group``, ``warmup`` and
#: ``cold`` fields are gone.
BENCH_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class BenchWorkload:
    """One registered benchmark workload.

    ``func(cache, **params)`` must be deterministic and return a payload
    dict containing at least ``"check"`` (scalar science outputs; see the
    schema notes above).
    """

    name: str
    description: str
    func: Callable[..., dict]
    params: dict[str, Any] = field(default_factory=dict)
    rounds: int = 2


_BENCHES: dict[str, BenchWorkload] = {}


def register_bench(
    name: str,
    *,
    params: dict[str, Any] | None = None,
    rounds: int = 2,
) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    """Class-less registry decorator (mirrors ``@register_parallel``).

    The decorated function keeps working as a plain function; the registry
    entry wraps it with its parameters and timed-round count.
    """

    def deco(func: Callable[..., dict]) -> Callable[..., dict]:
        if name in _BENCHES:
            raise ValueError(f"benchmark workload {name!r} already registered")
        doc = (func.__doc__ or "").strip().splitlines()
        _BENCHES[name] = BenchWorkload(
            name=name,
            description=doc[0] if doc else name,
            func=func,
            params=dict(params or {}),
            rounds=rounds,
        )
        return func

    return deco


def get_bench(name: str) -> BenchWorkload:
    """Look up a registered workload by name."""
    try:
        return _BENCHES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark workload {name!r}; available: "
            f"{', '.join(available_benches())}"
        ) from None


def available_benches() -> list[str]:
    """All registered workload names, in registration order."""
    return list(_BENCHES)


def selected_benches(names: list[str] | None = None) -> list[str]:
    """The workloads a run executes, in deterministic (registration) order.

    An explicit ``names`` list is validated and re-ordered to registry
    order.
    """
    if names is None:
        return available_benches()
    unknown = [n for n in names if n not in _BENCHES]
    if unknown:
        raise KeyError(
            f"unknown benchmark workload(s) {unknown}; available: "
            f"{', '.join(available_benches())}"
        )
    chosen = set(names)
    return [n for n in available_benches() if n in chosen]


# ---------------------------------------------------------------------- #
# the harness                                                             #
# ---------------------------------------------------------------------- #


def _peak_rss_kb() -> int:
    """Process high-water RSS in KiB (ru_maxrss is bytes on macOS)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _seconds_stats(raw: list[float]) -> dict[str, Any]:
    arr = np.asarray(raw, dtype=np.float64)
    return {
        "raw": [float(x) for x in raw],
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
    }


def run_bench(name: str, rounds: int | None = None) -> dict:
    """Time one workload and return its per-workload JSON record.

    Every round sees a fresh memory-only :class:`EngineCache`, and the
    record's cache counters are summed over the timed rounds.
    """
    w = get_bench(name)
    n_rounds = rounds if rounds is not None else w.rounds
    if n_rounds < 1:
        raise ValueError("need at least one timed round")

    pool_before = pool_runtime.pool_stats_snapshot()
    raw: list[float] = []
    payload: dict = {}
    # Initialize from the dataclass so new CacheStats counters are summed
    # (not KeyError'd) the day they are added.
    cache_stats = CacheStats().as_dict()
    for _ in range(n_rounds):
        cache = EngineCache(disk=False)
        t0 = time.perf_counter()
        payload = w.func(cache, **w.params)
        raw.append(time.perf_counter() - t0)
        for key, value in cache.stats.as_dict().items():
            cache_stats[key] += value

    if not isinstance(payload, dict) or "check" not in payload:
        raise TypeError(f"workload {name!r} must return a dict payload with a 'check' key")
    record = {
        "params": _jsonable(w.params),
        "rounds": n_rounds,
        "seconds": _seconds_stats(raw),
        "peak_rss_kb": _peak_rss_kb(),
        "cache": cache_stats,
        "pool": {
            k: v - pool_before.get(k, 0)
            for k, v in pool_runtime.pool_stats_snapshot().items()
        },
        "check": _jsonable(payload["check"]),
    }
    if "metrics" in payload:
        # Workload-reported numbers (throughput, latency percentiles): kept
        # in the document for humans and dashboards, never compared — the
        # timing gate is the ``seconds`` block.
        record["metrics"] = _jsonable(payload["metrics"])
    return record


def host_fingerprint() -> dict[str, Any]:
    """Where a BENCH document was measured (for reading baselines honestly)."""
    import scipy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": int(os.cpu_count() or 1),
    }


def run_suite(
    names: list[str] | None = None,
    rounds: int | None = None,
    tag: str = "local",
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run a set of workloads and assemble the full BENCH document."""
    doc: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tag": tag,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "workloads": {},
    }
    for name in selected_benches(names):
        if progress is not None:
            progress(name)
        doc["workloads"][name] = run_bench(name, rounds=rounds)
    return doc


def write_bench_file(doc: dict, path: str | Path) -> Path:
    """Write a BENCH document as strict (NaN-free) indented JSON."""
    path = Path(path)
    path.write_text(json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n")
    return path


def load_bench_file(path: str | Path) -> dict:
    """Read a BENCH document; any unreadable or malformed file is a ValueError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read bench file {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("workloads"), dict):
        raise ValueError(f"bench file {path} is not a BENCH document (no 'workloads' object)")
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench file {path} has schema_version {version!r}; "
            f"this build reads {BENCH_SCHEMA_VERSION}"
        )
    return doc


# ---------------------------------------------------------------------- #
# baseline comparison                                                     #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ComparisonRow:
    """One workload's current-vs-baseline verdict."""

    name: str
    # ok | regression | improved | missing | new | check_mismatch | params_differ
    status: str
    ratio: float | None = None
    current_seconds: float | None = None
    baseline_seconds: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class BenchComparison:
    """The full join of a current run against a baseline document."""

    rows: tuple[ComparisonRow, ...]
    threshold: float

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def check_mismatches(self) -> list[ComparisonRow]:
        return [r for r in self.rows if r.status == "check_mismatch"]

    @property
    def ungated(self) -> list[ComparisonRow]:
        """Rows the gate could not evaluate: a baseline workload that did
        not run here ("missing") or ran with different parameters
        ("params_differ")."""
        return [r for r in self.rows if r.status in ("missing", "params_differ")]

    def failed(self) -> bool:
        """Whether the comparison should gate (non-zero exit).

        Regressions, check-value drift and ungated rows all gate —
        otherwise a params tweak or a dropped workload would silently
        disable its own perf and science gates while CI stays green.
        """
        return bool(self.regressions or self.check_mismatches or self.ungated)


def _checks_equal(a: Any, b: Any, rel_tol: float) -> bool:
    """Recursive check-value equality with relative float tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_checks_equal(a[k], b[k], rel_tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_checks_equal(x, y, rel_tol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b or a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b  # counters and sizes are exact; no tolerance
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=1e-12)
    return a == b


def compare_benchmarks(
    current: dict,
    baseline: dict,
    threshold: float = 1.5,
    check_rel_tol: float = 1e-4,
) -> BenchComparison:
    """Join two BENCH documents and flag regressions and check drift.

    Timings compare on ``seconds.min``, the least noisy statistic on shared
    CI runners.  A workload regresses when ``current/baseline > threshold``;
    it is reported "improved" below ``1/threshold``.  ``check`` values must
    agree to ``check_rel_tol`` (relative; integers exactly) — timings may
    drift, science must not.  Workloads run with different parameter sets
    (a baseline edited out of step with the registry) are reported
    ``params_differ``; they and ``missing`` rows fail
    :meth:`BenchComparison.failed`, because an uncomparable workload is an
    unenforced gate.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1.0 (it is a slowdown ratio)")
    cur = current.get("workloads", {})
    base = baseline.get("workloads", {})
    rows: list[ComparisonRow] = []
    for name in list(base) + [n for n in cur if n not in base]:
        if name not in cur:
            rows.append(ComparisonRow(name, "missing", detail="in baseline, not in this run"))
            continue
        if name not in base:
            rows.append(ComparisonRow(name, "new", detail="no baseline entry"))
            continue
        c, b = cur[name], base[name]
        if c.get("params") != b.get("params"):
            # Different parameter sets are apples-to-oranges: neither the
            # timings nor the check values are comparable.  Report it
            # instead of misdiagnosing the inevitable check drift.
            rows.append(
                ComparisonRow(name, "params_differ", detail="parameter sets differ; not compared")
            )
            continue
        c_sec = float(c["seconds"]["min"])
        b_sec = float(b["seconds"]["min"])
        ratio = c_sec / b_sec if b_sec > 0 else math.inf
        if not _checks_equal(c.get("check"), b.get("check"), check_rel_tol):
            status, detail = "check_mismatch", "science outputs differ from baseline"
        elif ratio > threshold:
            status, detail = "regression", f"slower than {threshold:.2f}x baseline"
        elif ratio < 1.0 / threshold:
            status, detail = "improved", f"faster than baseline/{threshold:.2f}"
        else:
            status, detail = "ok", ""
        rows.append(
            ComparisonRow(
                name,
                status,
                ratio=ratio,
                current_seconds=c_sec,
                baseline_seconds=b_sec,
                detail=detail,
            )
        )
    return BenchComparison(rows=tuple(rows), threshold=threshold)


def render_comparison(cmp: BenchComparison) -> str:
    """Human-readable comparison table (the CLI prints this)."""
    lines = [
        f"bench comparison (seconds.min, threshold={cmp.threshold:.2f}x)",
        f"{'workload':24s} {'status':15s} {'current':>10s} {'baseline':>10s} {'ratio':>7s}",
    ]
    for r in cmp.rows:
        cur = f"{r.current_seconds:.4f}s" if r.current_seconds is not None else "-"
        base = f"{r.baseline_seconds:.4f}s" if r.baseline_seconds is not None else "-"
        ratio = f"{r.ratio:.2f}x" if r.ratio is not None else "-"
        suffix = f"  {r.detail}" if r.detail else ""
        lines.append(f"{r.name:24s} {r.status:15s} {cur:>10s} {base:>10s} {ratio:>7s}{suffix}")
    n_reg = len(cmp.regressions)
    n_bad = len(cmp.check_mismatches)
    n_ungated = len(cmp.ungated)
    lines.append(
        f"{len(cmp.rows)} workloads compared: {n_reg} regression(s), "
        f"{n_bad} check mismatch(es), {n_ungated} ungated"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# registered workloads                                                    #
# ---------------------------------------------------------------------- #
#
# Each function is deterministic, takes the harness's EngineCache first,
# and returns a payload whose "check" entry is the scalar science the
# comparison gate pins.


@register_bench("exact_v2", params={"n_head": 22, "n_deep": 26, "dec2_scheme": "classical122"})
def _bench_exact_v2(cache: EngineCache, n_head: int, n_deep: int, dec2_scheme: str) -> dict:
    """Exact-expansion engine v2: bitset/Gray enumeration at the raised limit.

    ``n_head`` is the headline graph the seed enumerator could still solve
    (so ``--compare`` shows the speedup); ``n_deep`` (> 22) and the
    ``Dec_2`` of a ⟨1,2,2⟩-type scheme (28 vertices, solved exactly under
    the "auto" policy) were outside the pre-v2 exactly-solvable regime.
    """
    from repro.cdag.build import layered_circulant_cdag
    from repro.core.exact import exact_edge_expansion_v2
    from repro.engine.builders import cached_estimate

    g_head = layered_circulant_cdag(n_head)
    h_head, m_head = exact_edge_expansion_v2(g_head)
    g_deep = layered_circulant_cdag(n_deep)
    h_deep, m_deep = exact_edge_expansion_v2(g_deep)
    est = cached_estimate(dec2_scheme, 2, policy="auto", cache=cache)
    return {
        "check": {
            "h_head": h_head,
            "head_witness": int(m_head.sum()),
            "h_deep": h_deep,
            "deep_witness": int(m_deep.sum()),
            "dec2_method": est.method,
            "dec2_h": est.upper,
        },
    }


@register_bench(
    "seq_io_sweep",
    params={"scheme": "strassen", "M": 192, "t_max": 8, "simulate_upto": 128},
)
def _bench_seq_io_sweep(
    cache: EngineCache, scheme: str, M: int, t_max: int, simulate_upto: int
) -> dict:
    """Theorem 1.1's n-sweep: simulated + modeled DF-Strassen I/O vs bound."""
    from repro.experiments.seq_io import n_sweep

    del cache
    result = n_sweep(scheme, M=M, t_range=range(4, t_max + 1), simulate_upto=simulate_upto)
    return {
        "check": {
            "fit_exponent": result["fit_exponent"],
            "words": [r["measured_words"] for r in result["rows"]],
        },
    }


@register_bench("seq_io_models", params={"n_m_sweep": 4096, "omega_depth": 9, "hybrid_levels": 6})
def _bench_seq_io_models(
    cache: EngineCache,
    n_m_sweep: int,
    omega_depth: int,
    hybrid_levels: int,
) -> dict:
    """Closed-form I/O recurrences: M-sweep, ω₀-sweep, cutoffs, hybrids."""
    from repro.algorithms.nonstationary import nonstationary_io
    from repro.experiments.seq_io import (
        classical_comparison,
        cutoff_ablation,
        m_sweep,
        omega_sweep,
    )

    del cache
    m_result = m_sweep("strassen", n=n_m_sweep)
    omega = omega_sweep(M=192, depth=omega_depth)
    cutoff = cutoff_ablation(n=512, M=3 * 32 * 32)
    classical_comparison(M=192, n=128)  # timed with the rest; no check output
    hybrid_rows = []
    for k in range(0, hybrid_levels + 1):
        schemes = ["strassen"] * k + ["classical2"] * (hybrid_levels - k)
        rep = nonstationary_io(512, 192, schemes)
        hybrid_rows.append(
            {
                "strassen_levels": k,
                "measured_words": rep.words,
                "base_multiplies": rep.n_base_multiplies,
            }
        )
    return {
        "check": {
            "m_fit_exponent": m_result["fit_exponent"],
            "omega_fits": {r["scheme"]: r["fit_exponent"] for r in omega["rows"]},
            "best_base": cutoff["best_base"],
            "hybrid_words": [r["measured_words"] for r in hybrid_rows],
        },
    }


@register_bench("seq_io_simulate", params={"n": 128, "M": 192, "scheme": "strassen"})
def _bench_seq_io_simulate(cache: EngineCache, n: int, M: int, scheme: str) -> dict:
    """Full FastMemory simulation of one depth-first run (no model shortcut)."""
    from repro.algorithms.io_strassen import dfs_io

    del cache
    rep = dfs_io(n, M, scheme)
    return {
        "check": {
            "words": rep.words,
            "messages": rep.messages,
            "base_multiplies": rep.n_base_multiplies,
        },
    }


@register_bench("partition_bound", params={"deep": False})
def _bench_partition_bound(cache: EngineCache, deep: bool) -> dict:
    """Eq. 6 partition bounds vs Belady-scheduled I/O on real CDAGs."""
    from repro.cdag.classical_cdag import classical_matmul_cdag, matvec_cdag
    from repro.cdag.pebble import exhaustive_min_io, schedule_io
    from repro.cdag.schedule import bfs_topological_order, dfs_topological_order
    from repro.cdag.strassen_cdag import h_graph
    from repro.core.partition import best_partition_bound

    del cache
    cases = [
        ("classical n=4", classical_matmul_cdag(4), 8),
        ("classical n=5", classical_matmul_cdag(5), 12),
        ("matvec n=6", matvec_cdag(6), 6),
        ("strassen H_2", h_graph("strassen", 2).cdag, 8),
    ]
    if deep:
        cases += [
            ("strassen H_3", h_graph("strassen", 3).cdag, 16),
            ("winograd H_2", h_graph("winograd", 2).cdag, 8),
        ]
    rows = []
    for name, g, M in cases:
        for order_name, order_fn in (
            ("dfs", dfs_topological_order),
            ("bfs", bfs_topological_order),
        ):
            order = order_fn(g)
            measured = schedule_io(g, order, M=M, policy="belady").total
            bound, seg = best_partition_bound(g, order, M)
            rows.append(
                {
                    "graph": name,
                    "order": order_name,
                    "M": M,
                    "partition_bound": bound,
                    "measured_io": measured,
                    "gap": measured / bound if bound else float("inf"),
                    "segment": seg,
                }
            )
    g_tiny = matvec_cdag(2)
    order = dfs_topological_order(g_tiny)
    tiny = {
        "bound": best_partition_bound(g_tiny, order, 4)[0],
        "optimum": exhaustive_min_io(g_tiny, 4),
        "belady": schedule_io(g_tiny, order, M=4, policy="belady").total,
    }
    return {
        "check": {
            "bounds": [r["partition_bound"] for r in rows],
            "measured": [r["measured_io"] for r in rows],
            "tiny_optimum": tiny["optimum"],
        },
    }


_GRID_MEMORIES = (48, 192, 768, 3072)


def _grid_spec(schemes: Sequence[str], k_max: int) -> GridSpec:
    from repro.engine.grid import GridSpec

    return GridSpec.from_ranges(schemes=schemes, k_max=k_max, memories=_GRID_MEMORIES)


@register_bench("grid_sweep_cold", params={"schemes": ("strassen", "winograd"), "k_max": 4})
def _bench_grid_sweep_cold(cache: EngineCache, schemes: Sequence[str], k_max: int) -> dict:
    """Cold (scheme × k × M) sweep: every graph, spectrum, estimate rebuilt."""
    from repro.engine.grid import run_grid

    rows = run_grid(_grid_spec(schemes, k_max), cache=cache).rows
    return {
        "check": {
            "points": len(rows),
            "V_total": sum(r["V"] for r in rows),
            "E_total": sum(r["E"] for r in rows),
            "last_h_upper": rows[-1]["h_upper"],
            "last_io_lower": rows[-1]["io_lower_bound"],
        },
    }


@register_bench(
    "pool_cold_vs_warm",
    params={"schemes": ("strassen",), "k_max": 3, "workers": 4},
    rounds=1,
)
def _bench_pool_cold_vs_warm(
    cache: EngineCache, schemes: Sequence[str], k_max: int, workers: int
) -> dict:
    """First vs second pooled grid sweep: worker spawn cost vs warm dispatch.

    The workload shuts the shared pool down, runs one ``workers``-wide grid
    sweep cold (pays interpreter + numpy spawns), then runs the identical
    sweep warm on the now-live pool.  The ``check`` block pins what must
    hold on every leg — identical rows and **zero** new processes for the
    warm sweep (trivially true under ``REPRO_POOL=0``, load-bearing when
    pooled); the cold/warm split and their ratio land in the ungated
    ``metrics`` block.
    """
    from repro.engine.grid import run_grid

    del cache  # fresh memory-only caches per sweep: the pool is the subject
    pool_runtime.shutdown_pool()
    spec = _grid_spec(schemes, k_max)
    t0 = time.perf_counter()
    cold_report = run_grid(spec, workers=workers, cache=EngineCache(disk=False))
    cold_s = time.perf_counter() - t0
    before = pool_runtime.pool_stats_snapshot()
    t0 = time.perf_counter()
    warm_report = run_grid(spec, workers=workers, cache=EngineCache(disk=False))
    warm_s = time.perf_counter() - t0
    warm_delta = {
        k: v - before.get(k, 0) for k, v in pool_runtime.pool_stats_snapshot().items()
    }
    return {
        "metrics": {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "cold_over_warm": cold_s / warm_s if warm_s > 0 else math.inf,
            "pooled": pool_runtime.pool_enabled(),
        },
        "check": {
            "points": len(cold_report.rows),
            "rows_identical": cold_report.rows == warm_report.rows,
            "warm_new_processes": warm_delta["workers_spawned"],
            "warm_pool_starts": warm_delta["pool_starts"],
        },
    }


@register_bench(
    "table1_scaling",
    params={"n": 64, "qs2d": (2, 4, 8), "qs3d": (2, 4), "ells": (1, 2), "n0_factor": 4},
)
def _bench_table1_scaling(
    cache: EngineCache,
    n: int,
    qs2d: Sequence[int],
    qs3d: Sequence[int],
    ells: Sequence[int],
    n0_factor: int,
) -> dict:
    """Table I scaling rows: 2D/3D exponent fits and CAPS all-BFS shape."""
    from repro.experiments.table1 import caps_scaling, classical_2d_scaling, threed_scaling

    del cache
    two_d = classical_2d_scaling(n=n, qs=tuple(qs2d))
    three_d = threed_scaling(n=n, qs=tuple(qs3d))
    caps = caps_scaling(n0_factor=n0_factor, ells=tuple(ells))
    return {
        "check": {
            "cannon_p_exponent": two_d["cannon_p_exponent"],
            "threed_p_exponent": three_d["p_exponent"],
            "caps_words": [r["measured_words"] for r in caps["rows"]],
        },
    }


@register_bench("caps_tradeoff", params={"n": 56, "ell": 2})
def _bench_caps_tradeoff(cache: EngineCache, n: int, ell: int) -> dict:
    """CAPS schedule frontier: memory/bandwidth trade against Corollary 1.2."""
    from repro.experiments.table1 import caps_memory_sweep

    del cache
    result = caps_memory_sweep(n=n, ell=ell)
    return {
        "check": {
            "words": {r["schedule"]: r["measured_words"] for r in result["rows"]},
            "mem_peaks": {r["schedule"]: r["mem_peak"] for r in result["rows"]},
            "all_verified": all(r["verified"] for r in result["rows"]),
        },
    }


@register_bench("table1", params={"n": 64})
def _bench_table1(cache: EngineCache, n: int) -> dict:
    """The full six-cell Table I: attaining algorithms beside every bound."""
    from repro.experiments.table1 import table1_summary

    del cache
    rows = table1_summary(n=n)
    return {
        "check": {
            "measured": {f"{r['regime']}/{r['class']}": r["measured_words"] for r in rows},
        },
    }


async def _serve_load_drive(
    cache: EngineCache, clients: int, repeats: int, scheme: str, k: int
) -> dict[str, Any]:
    """Boot the service on a free port and fire the concurrent request mix.

    Wave 0 is ``clients`` *identical* ``/expansion`` requests in flight at
    once — the single-flight invariant under test (exactly one build chain
    however many clients ask).  Later waves mix in ``/bounds`` and
    ``/healthz`` so the measured throughput covers cheap and CPU-bound
    endpoints alike.
    """
    import asyncio

    from repro.serve.http import fetch_json
    from repro.serve.service import ExpansionService, ServeConfig

    expansion = f"/expansion?scheme={scheme}&k={k}"
    rotation = (expansion, "/bounds?n=4096&M=256&p=64", expansion, "/healthz")
    service = ExpansionService(ServeConfig(host="127.0.0.1", port=0, workers=0), cache=cache)
    await service.start()
    port = service.port
    statuses: list[int] = []
    latencies: list[float] = []

    async def one_client(idx: int) -> None:
        for r in range(repeats):
            # wave 0: everyone asks the identical expansion question at once
            target = expansion if r == 0 else rotation[(idx + r) % len(rotation)]
            t0 = time.perf_counter()
            status, _body = await fetch_json("127.0.0.1", port, target)
            latencies.append(time.perf_counter() - t0)
            statuses.append(status)

    t_start = time.perf_counter()
    try:
        await asyncio.gather(*(one_client(i) for i in range(clients)))
    finally:
        await service.stop()
    wall = time.perf_counter() - t_start
    lat = np.asarray(sorted(latencies), dtype=np.float64)
    return {
        "ok": sum(1 for s in statuses if s == 200),
        "errors": sum(1 for s in statuses if s != 200),
        "total": len(statuses),
        "wall": wall,
        "requests_per_s": len(statuses) / wall if wall > 0 else 0.0,
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
    }


@register_bench("serve_load", params={"clients": 8, "repeats": 3, "scheme": "strassen", "k": 2})
def _bench_serve_load(cache: EngineCache, clients: int, repeats: int, scheme: str, k: int) -> dict:
    """Concurrent HTTP load against the serving layer (single-flight path).

    Every round boots a fresh in-process service over the harness's cold
    cache, so the reported ``builds`` counter is exact: the identical
    ``/expansion`` wave must produce one build chain (graph + spectrum +
    estimate = 3 builds at the spectral depth used here) no matter how
    many clients race it.  Throughput and latency land in the ungated
    ``metrics`` block; the ``check`` block pins what must not drift —
    every response 200, zero errors, exactly 3 builds.
    """
    import asyncio

    result = asyncio.run(_serve_load_drive(cache, clients, repeats, scheme, k))
    builds = cache.stats.builds
    return {
        "metrics": {
            "requests": result["total"],
            "requests_per_s": result["requests_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p99_ms": result["latency_p99_ms"],
        },
        "check": {
            "responses_ok": result["ok"],
            "errors": result["errors"],
            "builds": builds,
        },
    }
