"""serve_mixed: a seeded request mix against ``python -m repro serve``.

The server runs in its own process (``--workers 0``, a fresh on-disk cache
per boot).  One client process drives it closed-loop over two keep-alive
connections: analysis clients wait for each answer before asking again.

The mix (fractions of requests):

* ``BOUNDS_SHARE`` closed-form ``/bounds`` queries over a small grid;
* a Zipf-skewed hot set of ``/expansion``, ``/plan``, ``/scaling`` and
  ``/sweep`` keys, which hit the cache after their first request;
* ``COLD_SHARE`` drawn uniformly from a cold tail with more distinct keys
  than the server's 64-item memory tier, so evicted keys come back from
  the disk tier or are rebuilt.

``classical2`` is left out on purpose: its certified interval is empty at
this commit, so ``/expansion?scheme=classical2&k=3`` answers an error (see
NOTES.md).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HOST = "127.0.0.1"
CONNECTIONS = 2
PASS_REQUESTS = 10_000
BOUNDS_SHARE = 0.40
COLD_SHARE = 0.01
ZIPF_S = 1.1
BOOT_TIMEOUT_S = 60.0
#: A request still unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 30.0

BOUNDS = [
    f"/bounds?n={n}&M={m}&p={p}" for n in (1024, 4096, 16384) for m in (256, 4096) for p in (1, 49)
]

HOT = [
    "/expansion?scheme=strassen&k=3",
    "/plan?n=4096&topology=uniform",
    "/expansion?scheme=winograd&k=3",
    "/sweep?schemes=strassen&k_max=3&memories=48,192",
    "/scaling?n=28&p_max=16",
    "/expansion?scheme=strassen&k=2",
    "/plan?n=4096&topology=fat-tree:4x4",
    "/expansion?scheme=strassen&k=4",
    "/plan?n=1024&topology=torus:4x4",
    "/expansion?scheme=classical122&k=3",
    "/sweep?schemes=strassen,winograd&k_max=2&memories=48,192,768",
    "/plan?n=8192&topology=gpu:2x8",
    "/expansion?scheme=hybrid4&k=1",
    "/scaling?n=56&p_max=16&algos=cannon,summa",
    "/expansion?scheme=strassen&k=4&policy=cone",
    "/expansion?scheme=winograd&k=4",
]


def _cold_keys() -> list[str]:
    keys = []
    for schemes, ks in (
        (("strassen", "winograd"), (1, 2, 3, 4)),
        (("classical122", "classical221", "classical212"), (1, 2, 3)),
        (("classical3", "strassen122"), (1, 2)),
        (("hybrid4", "strassen2x"), (1,)),
    ):
        for scheme in schemes:
            for k in ks:
                for policy in ("auto", "spectral", "cone"):
                    keys.append(f"/expansion?scheme={scheme}&k={k}&policy={policy}")
    for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
        for topology in ("uniform", "fat-tree:4x4", "torus:4x4", "gpu:2x8"):
            keys.append(f"/plan?n={n}&topology={topology}&cs=1,2")
    for n in (256, 1024, 2048, 8192, 32768):
        for p in (7, 64, 343, 4096):
            keys.append(f"/bounds?n={n}&M=1024&p={p}")
    return [k for k in keys if k not in HOT]


#: Cold-tail keys that hit the empty-interval defect answer 400; the
#: reference pass drops them, and the mix only sends keys reference.json lists.
COLD = _cold_keys()


def request_stream(seed: int, keys: set[str] | None = None):
    """The seeded, endless request sequence (same seed, same sequence)."""
    rng = random.Random(seed)
    cold = [k for k in COLD if keys is None or k in keys]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(HOT))]
    while True:
        u = rng.random()
        if u < BOUNDS_SHARE:
            yield rng.choice(BOUNDS)
        elif u < BOUNDS_SHARE + COLD_SHARE:
            yield rng.choice(cold)
        else:
            yield rng.choices(HOT, weights)[0]


def body_digest(body: bytes) -> str:
    """Digest of a 200 body minus its cache-accounting ``stats`` block.

    ``stats`` counts the hits and builds of whichever request computed the
    payload, so it differs between a cold build and a disk-tier rebuild of
    the same answer; every other field must match the reference exactly.
    """
    doc = json.loads(body)
    if isinstance(doc, dict):
        doc.pop("stats", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# server process                                                          #
# ---------------------------------------------------------------------- #


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    boot_s: float

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def boot_server(cmd: list[str], env: dict[str, str], cwd: Path) -> Server:
    """Start the server and wait until ``/healthz`` answers; time both."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        port = None
        assert proc.stderr is not None
        while port is None:
            line = proc.stderr.readline()
            if not line:
                raise RuntimeError(f"server exited during boot (code {proc.wait()})")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not report its port in time")
        status, _ = asyncio.run(_get_once(port, "/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
    except BaseException:
        proc.kill()
        proc.wait(timeout=20)
        raise
    return Server(proc, port, time.perf_counter() - t0)


async def _get_once(port: int, target: str) -> tuple[int, bytes]:
    conn = _Conn(port)
    try:
        return await asyncio.wait_for(conn.get(target), REQUEST_TIMEOUT_S)
    finally:
        await conn.close()


# ---------------------------------------------------------------------- #
# keep-alive client                                                       #
# ---------------------------------------------------------------------- #


class _Conn:
    """One keep-alive HTTP/1.1 connection (reopened after a close)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def get(self, target: str) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(HOST, self.port)
        assert self.reader is not None
        self.writer.write(f"GET {target} HTTP/1.1\r\nhost: {HOST}\r\n\r\n".encode("latin-1"))
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:] if line)
        )
        body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        self.reader = self.writer = None


@dataclass
class LoadResult:
    latencies: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    #: target -> raw-body sha256 -> [body, number of responses with it]
    bodies: dict[str, dict[str, list[Any]]] = field(default_factory=dict)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def pass_seconds(self) -> list[float]:
        """Wall time of each complete block of ``PASS_REQUESTS`` completions."""
        marks = self.done_at[PASS_REQUESTS - 1 :: PASS_REQUESTS]
        return [b - a for a, b in zip([0.0] + marks, marks)]


async def _drive(port: int, seed: int, seconds: float, keys: set[str]) -> LoadResult:
    stream = request_stream(seed, keys)
    result = LoadResult()
    start = time.perf_counter()
    deadline = start + seconds

    async def client() -> None:
        conn = _Conn(port)
        try:
            while time.perf_counter() < deadline:
                target = next(stream)
                t0 = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(conn.get(target), REQUEST_TIMEOUT_S)
                except (OSError, asyncio.IncompleteReadError, ValueError) as exc:  # incl. timeouts
                    status, body = -1, repr(exc).encode()
                    await conn.close()
                t1 = time.perf_counter()
                result.latencies.append(t1 - t0)
                result.done_at.append(t1 - start)
                if status != 200:
                    result.failed.append(f"{target}: status {status}: {body[:200]!r}")
                else:
                    raw = hashlib.sha256(body).hexdigest()
                    seen = result.bodies.setdefault(target, {}).setdefault(raw, [body, 0])
                    seen[1] += 1
        finally:
            await conn.close()

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    result.wall = time.perf_counter() - start
    return result


def drive(port: int, seed: int, seconds: float, keys: set[str]) -> LoadResult:
    return asyncio.run(_drive(port, seed, seconds, keys))


def cache_info(port: int) -> dict[str, Any]:
    status, body = asyncio.run(_get_once(port, "/cache/info"))
    if status != 200:
        raise RuntimeError(f"/cache/info answered {status}")
    return json.loads(body)


def check_bodies(result: LoadResult, reference: dict[str, str]) -> tuple[list[str], int]:
    """Match every 200 body with its key's reference digest.

    Returns the mismatches and the number of responses that carried them.
    """
    problems, failed = [], 0
    for target, bodies in result.bodies.items():
        want = reference.get(target)
        for body, count in bodies.values():
            got = body_digest(body)
            if got != want:
                problems.append(f"{target}: body digest {got}, reference {want} ({count} responses)")
                failed += count
    return problems, failed


def server_command(root: Path, cache_dir: Path, trace_out: Path | None) -> list[str]:
    serve_args = ["--cache-dir", str(cache_dir), "serve", "--port", "0", "--workers", "0"]
    if trace_out is None:
        return [sys.executable, "-m", "repro", *serve_args]
    launcher = Path(__file__).with_name("serve_traced.py")
    return [sys.executable, str(launcher), str(trace_out), *serve_args]


def make_reference(root: Path, env: dict[str, str], work: Path) -> dict[str, str]:
    """Digest of every key the mix can send, from a fresh server (one pass)."""
    cache_dir = fresh_dir(work, "serve-reference")
    server = boot_server(server_command(root, cache_dir, None), env, root)
    try:
        out: dict[str, str] = {}
        dropped: list[str] = []

        async def fetch_all() -> None:
            conn = _Conn(server.port)
            try:
                for target in BOUNDS + HOT + COLD:
                    status, body = await conn.get(target)
                    if status == 200:
                        out[target] = body_digest(body)
                    elif target in COLD and status == 400:
                        dropped.append(target)
                    else:
                        raise RuntimeError(f"{target} answered {status}: {body[:200]!r}")
            finally:
                await conn.close()

        asyncio.run(fetch_all())
        for target in dropped:
            print(f"reference: dropped cold key {target} (400)", file=sys.stderr)
        return out
    finally:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)


def fresh_dir(work: Path, name: str) -> Path:
    """An empty per-process directory under ``work`` (a server's disk cache)."""
    path = work / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
