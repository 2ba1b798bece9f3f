"""``python -m repro`` — the sweeps the example/benchmark scripts do by hand.

Subcommands:

* ``sweep``     — cached (scheme × k × M × policy) grid, optionally parallel
* ``scaling``   — cached strong-scaling sweep (parallel registry × p × c)
* ``plan``      — topology-aware auto-scheduler: ranked plans per memory limit
* ``bench``     — run the registered benchmark workloads, write
  ``BENCH_<tag>.json``, optionally gate against a baseline
* ``expansion`` — one ``h(Dec_k C)`` estimate through the cache
* ``structure`` — the Figure 2 structural report for one (scheme, k)
* ``schemes``   — the validated scheme registry
* ``algorithms``— the parallel-algorithm registry
* ``cache``     — inspect or clear the on-disk artifact cache
* ``serve``     — long-running concurrent HTTP/JSON service over the cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TextIO

from repro.core.expansion import POLICIES
from repro.engine.cache import EngineCache, default_cache
from repro.engine.grid import GridSpec, run_grid
from repro.util.jsonutil import jsonable

__all__ = ["main", "build_parser"]

_SWEEP_COLUMNS = [
    "scheme",
    "shape",
    "k",
    "M",
    "V",
    "E",
    "h_lower",
    "h_upper",
    "provenance",
    "method",
    "io_lower_bound",
    "measured_words",
    "measured/lower",
]

_SCALING_COLUMNS = [
    "label",
    "class",
    "p",
    "c",
    "measured_words",
    "analytic_words",
    "mem_peak",
    "memory_dependent_bound",
    "memory_independent_bound",
    "binding",
    "measured/lower",
    "verified",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Cached, parallel experiment engine for the graph-expansion "
            "reproduction (Ballard, Demmel, Holtz & Schwartz, SPAA 2011)."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-engine)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk cache (memory-only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run a (scheme x k x M x policy) grid through the cache"
    )
    sweep.add_argument(
        "--schemes",
        nargs="+",
        default=["strassen", "winograd"],
        metavar="NAME",
        help=(
            "registry names, including rectangular entries (strassen122, "
            "classical122, ...) and dynamic classical<m>x<n>x<p> shapes"
        ),
    )
    sweep.add_argument("--k-min", type=int, default=1)
    sweep.add_argument("--k-max", type=int, default=5)
    sweep.add_argument(
        "--memories", nargs="+", type=int, default=[48, 192, 768, 3072], metavar="M"
    )
    sweep.add_argument("--policies", nargs="+", default=["auto"], choices=POLICIES)
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep.add_argument("--json", action="store_true", help="emit the full report as JSON")

    scaling = sub.add_parser(
        "scaling",
        help="strong-scaling sweep: registry algorithms x p-grid x replication c",
    )
    scaling.add_argument(
        "--algos",
        nargs="+",
        default=["all"],
        metavar="NAME",
        help="parallel-algorithm registry names, or 'all' (cannon summa 3d 2.5d caps)",
    )
    scaling.add_argument("--n", type=int, default=56, help="matrix size (default 56)")
    scaling.add_argument(
        "--p-max", type=int, default=64, help="processor budget per algorithm"
    )
    scaling.add_argument(
        "--cs",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        metavar="C",
        help="replication factors offered to 2.5D-style algorithms",
    )
    scaling.add_argument(
        "--scheme", default="strassen", help="scheme for scheme-driven algorithms (CAPS)"
    )
    scaling.add_argument("--alpha", type=float, default=1.0, help="per-message latency")
    scaling.add_argument("--beta", type=float, default=1.0, help="per-word cost")
    scaling.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help=(
            "cost the sweep on a machine topology instead of the flat "
            "(alpha, beta) model: uniform | fat-tree:SxH | torus:AxB[x..] | "
            "gpu:NxG"
        ),
    )
    scaling.add_argument(
        "--workers", type=int, default=1, help="pool workers for the sweep (1 = serial)"
    )
    scaling.add_argument("--json", action="store_true", help="emit the full report as JSON")

    plan_cmd = sub.add_parser(
        "plan",
        help="auto-scheduler: rank registry configurations on a topology",
    )
    plan_cmd.add_argument("--n", type=int, default=4096, help="matrix size (default 4096)")
    plan_cmd.add_argument(
        "--topology",
        default="uniform",
        metavar="SPEC",
        help="uniform[:P] | fat-tree:SxH | torus:AxB[x..] | gpu:NxG (default uniform)",
    )
    plan_cmd.add_argument(
        "--scheme", default="strassen", help="scheme for scheme-driven algorithms (CAPS)"
    )
    plan_cmd.add_argument("--alpha", type=float, default=1.0, help="base per-message latency")
    plan_cmd.add_argument("--beta", type=float, default=1.0, help="base per-word cost")
    plan_cmd.add_argument(
        "--p-max", type=int, default=None, help="processor budget (default: topology capacity)"
    )
    plan_cmd.add_argument(
        "--cs",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        metavar="C",
        help="replication factors offered to 2.5D-style algorithms",
    )
    plan_cmd.add_argument(
        "--memory-limits",
        nargs="+",
        type=int,
        default=None,
        metavar="M",
        help=(
            "per-rank word budgets to rank under (0 = unlimited); default: "
            "a tight->roomy->unlimited ladder that walks the Table-I regimes"
        ),
    )
    plan_cmd.add_argument(
        "--algos",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict the search to these registry names (default: all)",
    )
    plan_cmd.add_argument(
        "--top", type=int, default=5, help="rows shown per memory limit (default 5)"
    )
    plan_cmd.add_argument("--json", action="store_true", help="emit the full report as JSON")

    bench = sub.add_parser(
        "bench",
        help="run registered benchmark workloads and write BENCH_<tag>.json",
    )
    bench.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help="subset of registry names (default: every registered workload)",
    )
    bench.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="override the per-workload timed-round counts",
    )
    bench.add_argument("--tag", default="local", help="run label (default: local)")
    bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: BENCH_<tag>.json in the working directory)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH_*.json to gate against (non-zero exit on regression)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="slowdown ratio that counts as a regression (default: 1.5)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the registered workloads and exit"
    )
    bench.add_argument("--json", action="store_true", help="print the document to stdout")

    expansion = sub.add_parser("expansion", help="estimate h(Dec_k C) for one point")
    expansion.add_argument("--scheme", default="strassen")
    expansion.add_argument("--k", type=int, default=4)
    expansion.add_argument("--policy", default="auto", choices=POLICIES)
    expansion.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the exact subset search (default 1: "
            "serial and deterministic in CI; any value returns identical "
            "results)"
        ),
    )

    structure = sub.add_parser(
        "structure", help="Figure 2 structural report for one (scheme, k)"
    )
    structure.add_argument("--scheme", default="strassen")
    structure.add_argument("--k", type=int, default=5)

    sub.add_parser("schemes", help="list the validated scheme registry")

    sub.add_parser("algorithms", help="list the parallel-algorithm registry")

    cache_cmd = sub.add_parser("cache", help="inspect or clear the artifact cache")
    cache_cmd.add_argument("action", choices=["info", "clear"])

    serve = sub.add_parser(
        "serve",
        help=(
            "serve /expansion /bounds /sweep /scaling /plan over HTTP "
            "(asyncio + worker pool)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    serve.add_argument(
        "--port", type=int, default=8077, help="TCP port (0 picks a free one; default 8077)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "build executor: 0 (default) runs builds on in-process threads "
            "sharing one cache; N > 0 spawns N worker processes over the "
            "same cache directory"
        ),
    )
    serve.add_argument(
        "--memory-items",
        type=int,
        default=64,
        help="decoded-object LRU entry cap for the serving cache (default 64)",
    )
    serve.add_argument(
        "--memory-mb",
        type=int,
        default=512,
        help="decoded-object LRU byte cap in MiB; 0 disables the cap (default 512)",
    )

    check = sub.add_parser(
        "check", help="run the domain-invariant static-analysis checkers"
    )
    check.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help="files or directories to analyze (default: src/ under the repo root)",
    )
    check.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="CHECKER",
        help="checker names or RC codes to run (default: all registered)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="findings rendering (default: text)",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="report grandfathered findings too, instead of filtering them",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed baseline to grandfather current findings",
    )
    check.add_argument(
        "--list", action="store_true", help="list registered checkers and exit"
    )

    return parser


def _make_cache(args: argparse.Namespace) -> EngineCache:
    if args.no_cache:
        return EngineCache(disk=False)
    if args.cache_dir is not None:
        return EngineCache(args.cache_dir)
    return default_cache()


def _cmd_sweep(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    from repro.experiments.report import render_table

    spec = GridSpec.from_ranges(
        schemes=args.schemes,
        k_min=args.k_min,
        k_max=args.k_max,
        memories=args.memories,
        policies=args.policies,
    )
    report = run_grid(spec, workers=args.workers, cache=cache)
    if args.json:
        print(report.to_json(indent=2), file=out)
    else:
        print(
            render_table(
                report.rows,
                columns=_SWEEP_COLUMNS,
                title=f"[engine] sweep over {len(report.rows)} grid points",
            ),
            file=out,
        )
        s = report.stats
        print(
            f"wall {report.wall_time:.3f}s  workers={report.workers}  "
            f"builds={s['builds']}  hits={s['hits']}  misses={s['misses']}  "
            f"(warm cache => builds=0)",
            file=out,
        )
    return 0


def _cmd_scaling(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    from repro.experiments.report import render_table
    from repro.engine.scaling import ScalingSpec, scaling_sweep
    from repro.parallel.base import available_parallel

    algos = available_parallel() if args.algos == ["all"] else args.algos
    topology = None
    if args.topology is not None:
        from repro.topology import Topology

        topology = Topology.parse(args.topology, args.alpha, args.beta)
    spec = ScalingSpec(
        algos=tuple(algos),
        n=args.n,
        p_max=args.p_max,
        cs=tuple(args.cs),
        scheme=args.scheme,
        alpha=args.alpha,
        beta=args.beta,
        topology=topology,
    )
    report = scaling_sweep(spec, cache=cache, workers=args.workers)
    if args.json:
        print(report.to_json(indent=2), file=out)
    else:
        print(
            render_table(
                report.rows,
                columns=_SCALING_COLUMNS,
                title=(
                    f"[engine] strong scaling at n={args.n}: "
                    f"{len(report.rows)} (algorithm, p, c) points"
                ),
            ),
            file=out,
        )
        s = report.stats
        print(
            f"wall {report.wall_time:.3f}s  builds={s['builds']}  "
            f"hits={s['hits']}  misses={s['misses']}  (warm cache => builds=0)",
            file=out,
        )
    return 0


_PLAN_COLUMNS = [
    "label",
    "p",
    "c",
    "schedule",
    "predicted_time",
    "words",
    "messages",
    "memory",
    "lower_bound",
    "binding",
]


def _cmd_plan(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    from repro.engine.planner import plan_report
    from repro.experiments.report import render_table
    from repro.topology import Topology

    topology = Topology.parse(args.topology, args.alpha, args.beta)
    memory_limits = None
    if args.memory_limits is not None:
        memory_limits = [None if m == 0 else m for m in args.memory_limits]
    report = plan_report(
        args.n,
        scheme=args.scheme,
        topology=topology,
        memory_limits=memory_limits,
        p_max=args.p_max,
        cs=tuple(args.cs),
        algos=args.algos,
        cache=cache,
    )
    if args.json:
        print(json.dumps(jsonable(report), indent=2, allow_nan=False), file=out)
        return 0
    for table in report["tables"]:
        limit = table["memory_limit"]
        label = "unlimited" if limit is None else f"{limit} words/rank"
        rows = table["rows"][: args.top]
        if not rows:
            print(f"[plan] M={label}: no feasible configuration", file=out)
            continue
        print(
            render_table(
                rows,
                columns=_PLAN_COLUMNS,
                title=(
                    f"[plan] n={args.n} on {topology.name}, M={label}: "
                    f"top {len(rows)} of {len(table['rows'])} feasible plans"
                ),
            ),
            file=out,
        )
    print(f"winners across the memory ladder: {report['winners']}", file=out)
    s = report["stats"]
    print(
        f"wall {report['wall_time']:.3f}s  builds={s['builds']}  "
        f"hits={s['hits']}  misses={s['misses']}  (warm cache => builds=0)",
        file=out,
    )
    return 0


def _cmd_bench(args: argparse.Namespace, out: TextIO) -> int:
    from repro.engine.bench import (
        compare_benchmarks,
        get_bench,
        load_bench_file,
        render_comparison,
        run_suite,
        selected_benches,
        write_bench_file,
    )
    from repro.experiments.report import render_table

    if args.list:
        rows = []
        for name in selected_benches(args.workloads):
            w = get_bench(name)
            rows.append({"workload": name, "rounds": w.rounds, "description": w.description})
        print(render_table(rows, title="registered benchmark workloads"), file=out)
        return 0

    # Bad gate inputs fail here, before any workload runs (exit 2 via main).
    baseline = None
    if args.compare is not None:
        if args.threshold <= 1.0:
            raise ValueError("--threshold must exceed 1.0 (it is a slowdown ratio)")
        baseline = load_bench_file(args.compare)

    doc = run_suite(
        names=args.workloads,
        rounds=args.rounds,
        tag=args.tag,
        progress=lambda name: print(f"[bench] running {name} ...", file=sys.stderr),
    )
    path = args.out if args.out is not None else f"BENCH_{args.tag}.json"
    write_bench_file(doc, path)
    if args.json:
        print(json.dumps(jsonable(doc), indent=2, allow_nan=False), file=out)
    else:
        rows = [
            {
                "workload": name,
                "rounds": rec["rounds"],
                "min_s": round(rec["seconds"]["min"], 4),
                "p50_s": round(rec["seconds"]["p50"], 4),
                "p90_s": round(rec["seconds"]["p90"], 4),
                "builds": rec["cache"]["builds"],
                "hits": rec["cache"]["hits"],
            }
            for name, rec in doc["workloads"].items()
        ]
        print(
            render_table(rows, title=f"[bench] {len(rows)} workloads -> {path}"),
            file=out,
        )
    if baseline is None:
        return 0
    cmp = compare_benchmarks(doc, baseline, threshold=args.threshold)
    print(render_comparison(cmp), file=out)
    return 1 if cmp.failed() else 0


def _cmd_expansion(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    from repro.serve.jobs import expansion_payload

    payload = expansion_payload(vars(args), cache, jobs=args.jobs)
    # Strict-JSON invariant (same as the sweep report): NaN → null.
    print(json.dumps(jsonable(payload), indent=2, allow_nan=False), file=out)
    return 0


def _cmd_structure(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    from repro.experiments.structure_exp import figure2_report

    print(
        json.dumps(
            jsonable(figure2_report(args.scheme, args.k, cache=cache)),
            indent=2,
            allow_nan=False,
        ),
        file=out,
    )
    return 0


def _cmd_schemes(out: TextIO) -> int:
    from repro.cdag.schemes import available_schemes, get_scheme
    from repro.experiments.report import render_table

    rows = []
    for name in available_schemes():
        s = get_scheme(name)
        rows.append(
            {
                "scheme": name,
                "m0": s.m0,
                "n0": s.n0,
                "p0": s.p0,
                "t0": s.t0,
                "square": s.is_square,
                "omega0": s.omega0,
                "flat_additions": s.n_additions,
            }
        )
    print(render_table(rows, title="registered bilinear schemes"), file=out)
    return 0


def _cmd_algorithms(out: TextIO) -> int:
    from repro.experiments.report import render_table
    from repro.parallel.base import available_parallel, get_parallel

    rows = []
    for name in available_parallel():
        a = get_parallel(name)
        rows.append(
            {
                "algorithm": name,
                "class": a.algorithm_class,
                "regime": a.regime,
                "replication": a.supports_replication,
                "scheme-driven": a.uses_scheme,
                "requires": a.requirement,
                "attains": a.attains,
            }
        )
    print(render_table(rows, title="registered parallel algorithms"), file=out)
    return 0


def _cmd_cache(args: argparse.Namespace, cache: EngineCache, out: TextIO) -> int:
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifacts from {cache.root}", file=out)
    else:
        print(json.dumps(jsonable(cache.info()), indent=2, allow_nan=False), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.service import ServeConfig, run

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        disk=not args.no_cache,
        memory_items=args.memory_items,
        memory_bytes=args.memory_mb * 1024 * 1024 if args.memory_mb > 0 else None,
    )
    return run(config)


def _cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    from pathlib import Path

    from repro.analysis import (
        available_checkers,
        get_checker,
        render_findings,
        run_check,
        write_baseline,
    )
    from repro.analysis.baseline import DEFAULT_BASELINE_NAME

    root = Path.cwd()
    if args.list:
        for name in available_checkers():
            checker = get_checker(name)
            print(f"{checker.code}  {checker.name:<18} {checker.description}", file=out)
        return 0
    select = None
    if args.select:
        by_code = {get_checker(n).code: n for n in available_checkers()}
        select = [by_code.get(s, s) for s in args.select]
    report = run_check(
        paths=args.paths,
        select=select,
        root=root,
        use_baseline=not args.no_baseline,
    )
    if args.update_baseline:
        baseline = write_baseline(
            report.findings + report.baselined, root / DEFAULT_BASELINE_NAME
        )
        print(
            f"baselined {len(report.findings) + len(report.baselined)} "
            f"finding(s) -> {baseline}",
            file=out,
        )
        return 0
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(render_findings(report), file=out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cache = _make_cache(args)
    out = sys.stdout
    try:
        if args.command == "sweep":
            return _cmd_sweep(args, cache, out)
        if args.command == "scaling":
            return _cmd_scaling(args, cache, out)
        if args.command == "plan":
            return _cmd_plan(args, cache, out)
        if args.command == "bench":
            return _cmd_bench(args, out)
        if args.command == "expansion":
            return _cmd_expansion(args, cache, out)
        if args.command == "structure":
            return _cmd_structure(args, cache, out)
        if args.command == "schemes":
            return _cmd_schemes(out)
        if args.command == "algorithms":
            return _cmd_algorithms(out)
        if args.command == "cache":
            return _cmd_cache(args, cache, out)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "check":
            return _cmd_check(args, out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, and point
        # stdout at devnull so interpreter shutdown doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (KeyError, ValueError) as exc:
        # Domain errors (unknown scheme, infeasible policy/graph size) get a
        # one-line message instead of a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
