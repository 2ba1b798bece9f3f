#!/usr/bin/env python
"""CI smoke test for ``python -m repro serve``: boot, hammer, verify, stop.

Boots the real CLI entry point as a subprocess on a free port, fires a
concurrent request mix (an identical-``/expansion`` wave to exercise
single-flight, an ``/expansion`` on a graph with h = 0, plus ``/bounds``,
``/sweep``, ``/plan`` and ``/healthz``) and one bad request
(``/scaling?cs=0``, which must answer 400, not 500), then asks every job
key of the mix again: each repeat must decode to the same body as the
first answer, and the ``/cache/info`` hit counter must rise.  Checks every
response plus the ``/cache/info`` counters.  Exits non-zero on any
failure; prints one summary line on success, which also reports (without
gating them) the seconds from process start to the first ``/healthz`` and
to the first ``/bounds`` answer.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--workers N]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve.http import fetch_json  # noqa: E402

CLIENTS = 8

#: The one deliberately bad request: a replication factor below 1 is the
#: client's fault and must be rejected with a 400.
BAD_REQUEST = "/scaling?cs=0"


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


def wait_until_up(port: int, proc: subprocess.Popen, deadline_s: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if proc.poll() is not None:
            raise SystemExit(f"serve process exited early with rc={proc.returncode}")
        try:
            status, body = asyncio.run(fetch_json("127.0.0.1", port, "/healthz", timeout=5.0))
        except OSError:
            time.sleep(0.02)
            continue
        if status == 200 and body == {"status": "ok"}:
            return
        raise SystemExit(f"unexpected /healthz answer: {status} {body!r}")
    raise SystemExit("service did not come up within the deadline")


BOUNDS = "/bounds?n=4096&M=256&p=64"


def first_bounds(port: int) -> None:
    """The first ``/bounds`` request after boot (closed form: no build)."""
    status, body = asyncio.run(fetch_json("127.0.0.1", port, BOUNDS))
    if status != 200:
        raise SystemExit(f"{BOUNDS} answered {status} {body!r}")


async def hammer(port: int) -> dict:
    expansion = "/expansion?scheme=strassen&k=2"
    mix = [expansion] * CLIENTS  # the identical wave: single-flight's job
    mix += [
        BOUNDS,
        "/sweep?schemes=strassen&k_min=1&k_max=2&memories=48",
        "/plan?n=56&topology=fat-tree:4x4",
        # h = 0 graph: its zero-boundary witness certifies the interval [0, 0]
        "/expansion?scheme=classical2&k=3",
        expansion,
        "/healthz",
    ]
    results = await asyncio.gather(*(fetch_json("127.0.0.1", port, t) for t in mix))
    failures = [(t, s) for t, (s, _) in zip(mix, results) if s != 200]
    if failures:
        raise SystemExit(f"non-200 responses: {failures}")
    status, body = await fetch_json("127.0.0.1", port, BAD_REQUEST)
    if status != 400:
        raise SystemExit(f"{BAD_REQUEST} answered {status} {body!r}, expected 400")
    bodies = [body for _, body in results[:CLIENTS]]
    if any(body != bodies[0] for body in bodies):
        raise SystemExit("identical /expansion requests returned differing payloads")
    before = await cache_info(port)
    first = dict(zip(mix, (body for _, body in results)))
    for target in dict.fromkeys(t for t in mix if t != "/healthz"):
        status, body = await fetch_json("127.0.0.1", port, target)
        if status != 200 or body != first[target]:
            raise SystemExit(f"repeated {target} answered {status} with a different body")
    info = await cache_info(port)
    if info["stats"]["hits"] <= before["stats"]["hits"]:
        raise SystemExit("repeated keys did not raise the /cache/info hit counter")
    return info


async def cache_info(port: int) -> dict:
    status, info = await fetch_json("127.0.0.1", port, "/cache/info")
    if status != 200:
        raise SystemExit(f"/cache/info answered {status}")
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=0, help="serve --workers value")
    args = parser.parse_args()

    port = free_port()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        start = time.monotonic()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "--cache-dir",
                cache_dir,
                "serve",
                "--port",
                str(port),
                "--workers",
                str(args.workers),
            ],
            env=env,
        )
        try:
            wait_until_up(port, proc)
            healthz_s = time.monotonic() - start
            first_bounds(port)
            bounds_s = time.monotonic() - start
            info = asyncio.run(hammer(port))
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()

    service = info["service"]
    stats = info["stats"]
    if service["errors"] != 1:  # exactly the one BAD_REQUEST
        raise SystemExit(f"service counted {service['errors']} errors, expected 1")
    if args.workers == 0 and stats["builds"] == 0:
        raise SystemExit("expected at least one build through the shared cache")
    print(
        f"serve smoke ok: {service['requests']} requests, "
        f"{service['deduped']} deduped, builds={stats['builds']}, "
        f"workers={service['workers']}, "
        f"start->healthz={healthz_s:.2f}s start->bounds={bounds_s:.2f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
