"""``python -m repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT <repro CLI args...>``.
The wrappers go in before the service starts; on SIGINT the service shuts
down as usual and this launcher writes every span, plus the service-side
time of each request by route, to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Routes that answer from the service itself, not from a job.
_ADMIN = {"healthz", "cache/info"}


def main(argv: list[str]) -> int:
    from repro.engine.cli import main as cli_main
    from repro.serve.service import ExpansionService
    from repro.serve.jobs import run_job_inline

    trace_out = Path(argv[0])
    tracer = Tracer()
    layers.install(tracer)
    tracer.patch_function(run_job_inline, "serve.job")
    route_ms: dict[str, list[float]] = defaultdict(list)
    seen: set[str] = set()
    original = ExpansionService.handle

    async def handle(self, request):  # type: ignore[no-untyped-def]
        t0 = time.perf_counter()
        response = await original(self, request)
        ms = (time.perf_counter() - t0) * 1e3
        route = request.path.strip("/")
        if route not in _ADMIN:
            route_ms[route].append(ms)
            route_ms["hot" if request.target in seen else "cold"].append(ms)
            seen.add(request.target)
        return response

    ExpansionService.handle = handle  # type: ignore[method-assign]
    try:
        code = cli_main(argv[1:])
    finally:
        ExpansionService.handle = original  # type: ignore[method-assign]
        tracer.uninstall()
        tracer.dump(trace_out, {"route_ms": route_ms, "counts": dict(tracer.counts)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
