"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload expansion_grid --seed 1 --seconds 20 --trace 0

Workloads: ``expansion_grid``, ``parallel_costs``, ``exact_certify`` (batch
passes in this process) and ``serve_mixed`` (a seeded request mix against
``python -m repro serve`` in its own process).  ``--trace 0`` prints the
end-to-end metrics, measured with no wrappers installed; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
(self time per layer, counts, span coverage and tracing overhead).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment.  Spans of a traced run are written to ``.perfbench/`` at the
repository root.  ``--write-reference`` recomputes the workload's entry of
``reference.json`` instead of measuring (see NOTES.md).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("expansion_grid", "parallel_costs", "exact_certify", "serve_mixed")
SETUP_SAMPLES = 5
POOL_WORKERS = 2
#: Relative tolerance for floating-point outputs (eigensolver round-off).
FLOAT_RTOL = 1e-9

ALGORITHMS = ("2.5d", "3d", "cannon", "caps", "summa")
SERVE_ROUTES = ("expansion", "bounds", "plan", "scaling", "sweep")
COUNT_KEYS = ("hits", "misses", "builds", "evictions", "disk_errors")
POOL_KEYS = ("tasks_dispatched", "warm_dispatches", "workers_spawned", "respawns", "serial_tasks")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _peak_rss_mb(pid: int | str = "self") -> float:
    status = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    if match is None:
        raise RuntimeError("no VmHWM in /proc status")
    return int(match.group(1)) / 1024.0


def _same(got: Any, want: Any) -> bool:
    """Deep equality with a relative tolerance on floats."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=1e-300)
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return got == want


def _jsonify(value: Any) -> Any:
    """Outputs as the plain JSON types the reference file stores."""
    return json.loads(json.dumps(value, default=float))


# ---------------------------------------------------------------------- #
# environment                                                             #
# ---------------------------------------------------------------------- #


def _configure_env() -> dict[str, str]:
    """Keep every file the program writes inside the checkout, pin BLAS threads.

    With OpenBLAS's default of one thread per core, the sub-second grid
    sweep varied 0.17-0.28 s pass to pass on a 2-core host, against
    0.12-0.13 s single-threaded; the pool workers and the serve client
    also compete for the same two cores.  Must run before numpy loads.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")  # the C compiler's scratch files
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")
    os.environ["REPRO_NATIVE_DIR"] = str(WORK / "native")
    os.environ["REPRO_POOL_JOBS"] = str(POOL_WORKERS)
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return dict(os.environ)


def _openblas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS (numpy's and scipy's builds)."""
    out = {}
    maps = Path("/proc/self/maps").read_text()
    for lib_path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib_path).name] = int(fn())
                break
    return out


PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants (a probe's pool workers and resource
    tracker), so ``_stop_descendants`` can wait for every one of them."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, *[ctypes.c_ulong] * 4]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _descendants() -> list[int]:
    """Live and zombie descendants of this process, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _stop_descendants(grace: float = 5.0) -> None:
    """Stop the pool and the resource tracker cleanly, then terminate and
    reap whatever is left, so no process of the run outlives it."""
    if "repro.engine.pool" in sys.modules:
        sys.modules["repro.engine.pool"].shutdown_pool()
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()
    deadline = time.monotonic() + grace
    sig = signal.SIGTERM
    while True:
        while True:  # reap every child that has ended
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid == 0:
                break
        alive = _descendants()
        if not alive:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def environment() -> dict[str, Any]:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    from repro.core import _native
    from repro.engine import pool

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "native_kernel": _native.native_available(),
        "native_error": _native.native_build_error(),
        "pool_enabled": pool.pool_enabled(),
        "pool_max_workers": pool.max_pool_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
# set-up probes                                                           #
# ---------------------------------------------------------------------- #


def probe_setup(workload: str, env: dict[str, str]) -> tuple[float, dict[str, float]]:
    """Launch-to-ready seconds of one fresh process, plus its step times."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        steps = json.loads(line)
    finally:
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"setup probe for {workload} exited {proc.returncode}")
    return wall, steps


# ---------------------------------------------------------------------- #
# batch workloads                                                         #
# ---------------------------------------------------------------------- #


#: Span-derived per-layer metrics: name -> span-name prefix.  ``*_calls``
#: count spans; the rest sum self time.
SPAN_METRICS = {
    "cdag.dec_graph_s": "cdag.dec_graph",
    "cdag.dec_graph_calls": "cdag.dec_graph",
    "core.spectral_s": "core.spectral",
    "core.spectral_calls": "core.spectral",
    "core.sweep_cut_s": "core.sweep_cut",
    "core.cone_s": "core.cone",
    "core.exact_s": "core.exact",
    "core.exact_calls": "core.exact",
    "algorithms.io_model_s": "algorithms.io_model",
    "pool.submit_s": "pool.submit",
    "parallel.execute_s": "parallel.execute",
    **{f"parallel.execute_s.{a}": f"parallel.execute.{a}" for a in ALGORITHMS},
    "parallel.execute_calls": "parallel.execute",
    "engine.scaling_s": "engine.scaling",
    "engine.plan_s": "engine.plan",
    "util.jsonable_s": "util.jsonable",
    "util.jsonable_calls": "util.jsonable",
}
#: Counters the wrappers record (see layers.py).
SPAN_COUNTERS = ("cdag.vertices_built", "machine.critical_words", "machine.critical_messages", "machine.supersteps")

#: Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    *SPAN_METRICS,
    *SPAN_COUNTERS,
    "core.exact_efficiency",
    "core.native_load_s",
    *(f"engine.cache.{k}" for k in COUNT_KEYS),
    "engine.cache.hit_ratio",
    "pool.prewarm_s",
    *(f"pool.{k}" for k in POOL_KEYS),
    *(f"serve.{r}_ms_p50" for r in (*SERVE_ROUTES, "cold", "hot")),
    "serve.deduped",
    "serve.errors",
    "serve.boot_s",
    "trace.overhead_s",
    "trace.coverage",
    "trace.spans",
)


def _span_layers(windows: list[Any], passes: float) -> dict[str, float]:
    """Every per-layer metric, zero where no span fed it; per pass of work."""

    def per_pass(fn: Any) -> float:
        return _median([fn(w) for w in windows]) / passes

    out = dict.fromkeys(PER_LAYER, 0.0)
    for name, prefix in SPAN_METRICS.items():
        if name.endswith("_calls"):
            out[name] = per_pass(lambda w, p=prefix: w.n_calls(p))
        else:
            out[name] = per_pass(lambda w, p=prefix: w.seconds(p))
    for key in SPAN_COUNTERS:
        out[key] = per_pass(lambda w, k=key: w.counts.get(k, 0.0))
    out["trace.spans"] = per_pass(lambda w: sum(w.calls.values()))
    return out


def run_batch(workload: str, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict[str, Any]:
    import batch
    import layers
    from repro.engine import pool
    from tracer import Tracer

    ops_for, warmup = batch.BATCH[workload]
    probes = [probe_setup(workload, env) for _ in range(SETUP_SAMPLES)]
    warmup()
    ops = ops_for(seed)
    reference = _load_reference().get(workload, {})
    tracer = Tracer()
    problems: list[str] = []
    untraced: list[Any] = []
    traced: list[tuple[Any, Any]] = []
    counts_seen: list[dict[str, int]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        is_traced = trace and len(untraced) > len(traced)
        pool_before = pool.pool_stats_snapshot()
        if is_traced:
            layers.install(tracer)
            mark = tracer.mark()
        try:
            result = batch.run_pass(ops)
        finally:
            tracer.uninstall()
        if is_traced:
            window = tracer.window(mark)
            counts = _pass_counts(result, pool_before, window.counts)
            traced.append((result, window))
        else:
            counts = _pass_counts(result, pool_before, {})
            untraced.append(result)
        counts_seen.append(counts)
        if len(counts_seen) == 1:
            # Later passes reuse freed memory unevenly; set-up plus one pass
            # is the peak a user of this batch sees, whatever the pass count.
            first_pass_rss = _peak_rss_mb()
        attempted += len(result.op_seconds)
        for label, output in result.outputs.items():
            want = reference.get("outputs", {}).get(label)
            if want is None or not _same(_jsonify(output), want):
                failed += 1
                problems.append(f"{label}: output differs from reference.json")
        if workload == "exact_certify":
            mismatched = batch.exact_certify_check(result.outputs)
            failed += len(mismatched)
            problems += mismatched
        elapsed = time.perf_counter() - start
        mean = elapsed / (len(untraced) + len(traced))
        enough = len(traced) >= 1 if trace else True
        if enough and elapsed > seconds - 0.5 * mean:
            break

    problems += _check_counts(workload, counts_seen, reference.get("counts", {}))
    per_pass = [[s for _, s in r.op_seconds] for r in untraced]
    op_times = [s for t in per_pass for s in t]
    walls = [r.wall for r in untraced]
    if not trace:
        # A batch user submits a pass and waits for it, so p50 latency is the
        # median pass; a pass holds 3-8 very unequal calls, so p99 is the
        # slowest call of each pass, median over passes.
        metrics = {
            "setup_s": (_median([wall for wall, _ in probes]), "s"),
            "pass_s_p50": (_median(walls), "s"),
            "ops_per_s": (len(op_times) / sum(walls), "1/s"),
            "latency_p50_ms": (_median(walls) * 1e3, "ms"),
            "latency_p99_ms": (_median([_percentile(t, 99) for t in per_pass]) * 1e3, "ms"),
            "peak_rss_mb": (first_pass_rss, "MB"),
        }
    else:
        layer = _span_layers([w for _, w in traced], 1.0)
        cache_counts = counts_seen[0]
        for k in COUNT_KEYS:
            layer[f"engine.cache.{k}"] = cache_counts[f"cache.{k}"]
        lookups = cache_counts["cache.hits"] + cache_counts["cache.misses"]
        layer["engine.cache.hit_ratio"] = cache_counts["cache.hits"] / lookups if lookups else 0.0
        for k in POOL_KEYS:
            layer[f"pool.{k}"] = cache_counts[f"pool.{k}"]
        layer["core.native_load_s"] = _median([steps["native_load_s"] for _, steps in probes])
        if workload == "exact_certify":
            layer["pool.prewarm_s"] = _median([steps["warmup_s"] for _, steps in probes])
            t = {j: sum(s for r in untraced for lbl, s in r.op_seconds if lbl.endswith(f"jobs{j}")) for j in (1, 2)}
            layer["core.exact_efficiency"] = t[1] / (2 * t[2])
        traced_walls = [r.wall for r, _ in traced]
        layer["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        layer["trace.coverage"] = _median([w.root_s / r.wall for r, w in traced])
        metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
        tracer.dump(WORK / f"trace-{workload}-{seed}.json", {"workload": workload, "seed": seed})
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "notes": {
            "pass_s_untraced": [r.wall for r in untraced],
            "pass_s_traced": [r.wall for r, _ in traced],
            "ops": len(op_times),
        },
    }


def _pass_counts(result: Any, pool_before: dict[str, int], span_counts: dict[str, float]) -> dict[str, int]:
    """The counts of one pass that must repeat exactly from run to run."""
    from repro.engine import pool

    pool_now = pool.pool_stats_snapshot()
    counts = {f"cache.{k}": result.cache_stats[k] for k in COUNT_KEYS}
    counts.update({f"pool.{k}": pool_now[k] - pool_before[k] for k in POOL_KEYS})
    counts.update({k: int(v) for k, v in span_counts.items() if k.startswith("machine.")})
    return counts


def _check_counts(workload: str, seen: list[dict[str, int]], want: dict[str, int]) -> list[str]:
    """Exact counts must repeat in every pass and match the committed ones."""
    problems = []
    for i, counts in enumerate(seen):
        for key, value in counts.items():
            if key.startswith("machine.") and key not in want:
                continue
            if want.get(key) != value:
                problems.append(f"{workload} pass {i}: count {key} = {value}, reference {want.get(key)}")
    return problems


def _layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name in ("core.exact_efficiency", "engine.cache.hit_ratio", "trace.coverage"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------- #
# serve_mixed                                                             #
# ---------------------------------------------------------------------- #


def run_serve(seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict[str, Any]:
    import serve_mixed as sm

    # Client and server share one core (the server inherits the affinity):
    # a request then never waits for an idle core to be woken, which on a
    # shared 2-core host made throughput vary 2x from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = _load_reference().get("serve_mixed", {}).get("digests", {})
    keys = set(reference)
    boots = []
    for _ in range(SETUP_SAMPLES - 1):
        cache_dir = sm.fresh_dir(WORK, "serve-probe")
        server = sm.boot_server(sm.server_command(ROOT, cache_dir, None), env, ROOT)
        boots.append(server.boot_s)
        server.stop()
        shutil.rmtree(cache_dir)

    def phase(run_seconds: float, trace_out: Path | None) -> tuple[Any, Any, dict[str, Any], float]:
        cache_dir = sm.fresh_dir(WORK, "serve-cache")
        server = sm.boot_server(sm.server_command(ROOT, cache_dir, trace_out), env, ROOT)
        try:
            result = sm.drive(server.port, seed, run_seconds, keys)
            info = sm.cache_info(server.port)
            rss = _peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
            shutil.rmtree(cache_dir)
        return server, result, info, rss

    if not trace:
        server, result, info, rss = phase(seconds, None)
        boots.append(server.boot_s)
        results = [result]
    else:
        trace_out = WORK / f"trace-serve_mixed-{seed}.json"
        plain_server, plain, _, _ = phase(seconds / 2, None)
        server, result, info, rss = phase(seconds / 2, trace_out)
        boots += [plain_server.boot_s, server.boot_s]
        results = [plain, result]
    problems: list[str] = []
    mismatched = 0
    for r in results:
        found, n_bad = sm.check_bodies(r, reference)
        problems += found
        mismatched += n_bad
    failures = [f for r in results for f in r.failed]
    attempted = sum(r.attempted for r in results)
    if not trace:
        metrics = {
            "setup_s": (_median(boots), "s"),
            "pass_s_p50": (_median(result.pass_seconds()), "s"),
            "ops_per_s": (result.attempted / result.wall, "1/s"),
            "latency_p50_ms": (_percentile(result.latencies, 50) * 1e3, "ms"),
            "latency_p99_ms": (_percentile(result.latencies, 99) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = _serve_layers(plain, result, info, trace_out, _median(boots))
    return {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures) + mismatched,
        "problems": problems + failures[:20],
        "metrics": metrics,
        "notes": {"requests": attempted, "pass_s": [r.pass_seconds() for r in results]},
    }


def _serve_layers(plain: Any, traced: Any, info: dict[str, Any], trace_out: Path, boot_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced server, per pass of requests.

    Layer times come from the server's spans, cache and service counters
    from its own ``/cache/info``; ``trace.coverage`` is the share of the
    traced phase's wall time the server spent inside traced layer calls.
    """
    import serve_mixed as sm
    from tracer import Window

    doc = json.loads(trace_out.read_text())
    spans = [tuple(s) for s in doc["spans"]]
    window = Window(spans, 0, doc["meta"]["counts"])
    passes = traced.attempted / sm.PASS_REQUESTS
    layer = _span_layers([window], passes)
    stats = info["stats"]
    for k in COUNT_KEYS:
        layer[f"engine.cache.{k}"] = stats[k]
    lookups = stats["hits"] + stats["misses"]
    layer["engine.cache.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    pool_stats = info["pool"]["stats"]
    for k in POOL_KEYS:
        layer[f"pool.{k}"] = pool_stats[k]
    route_ms = doc["meta"]["route_ms"]
    for route in (*SERVE_ROUTES, "cold", "hot"):
        name = f"serve.{route}_ms_p50"
        layer[name] = _median(route_ms.get(route, []))
    layer["serve.deduped"] = info["service"]["deduped"]
    layer["serve.errors"] = info["service"]["errors"]
    layer["serve.boot_s"] = boot_s
    layer["trace.overhead_s"] = _median(traced.pass_seconds()) - _median(plain.pass_seconds())
    layer["trace.coverage"] = window.root_s / traced.wall
    return {name: (value, _layer_unit(name)) for name, value in layer.items()}


# ---------------------------------------------------------------------- #
# reference outputs                                                       #
# ---------------------------------------------------------------------- #


def _load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def write_reference(workload: str, seed: int, env: dict[str, str]) -> None:
    """Recompute one workload's reference entry from the current program."""
    doc = _load_reference()
    if workload == "serve_mixed":
        import serve_mixed as sm

        doc[workload] = {"digests": sm.make_reference(ROOT, env, WORK)}
    else:
        import batch
        import layers
        from repro.engine import pool
        from tracer import Tracer

        ops_for, warmup = batch.BATCH[workload]
        warmup()
        tracer = Tracer()
        layers.install(tracer)
        before = pool.pool_stats_snapshot()
        try:
            result = batch.run_pass(ops_for(seed))
        finally:
            tracer.uninstall()
        counts = _pass_counts(result, before, tracer.counts)
        doc[workload] = {"outputs": _jsonify(result.outputs), "counts": counts}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# entry point                                                             #
# ---------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    env = _configure_env()
    _become_subreaper()
    # A terminated run still stops its descendants (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.write_reference:
            write_reference(args.workload, args.seed, env)
            return 0
        env_record = environment()  # also compiles the native kernel on a first run
        if args.workload == "serve_mixed":
            out = run_serve(args.seed, args.seconds, bool(args.trace), env)
        else:
            out = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), env)
    finally:
        _stop_descendants()
    for problem in out["problems"][:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env_record, "workload": args.workload, "seed": args.seed, **out["notes"]}))
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
