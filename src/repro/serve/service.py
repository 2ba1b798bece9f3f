"""The concurrent expansion-analysis service: asyncio front, pooled builds.

One event loop accepts connections and parses requests; the CPU-bound
engine work (graph builds, eigensolves, sweeps) never runs on the loop —
it is dispatched to an executor:

* ``workers == 0`` (default) — a small thread pool in this process,
  sharing the service's :class:`~repro.engine.cache.EngineCache` directly.
  NumPy/SciPy kernels release the GIL, so threads already overlap the
  heavy parts; this mode is also fully deterministic for tests and the
  load bench.
* ``workers > 0`` — jobs ship to the process-wide persistent worker pool
  (:mod:`repro.engine.pool`, pre-warmed at service start), each worker
  holding a private cache over the same disk root (the grid runner's
  sharing model).  Workers return ``(body, counter-delta)`` and the
  parent merges the delta, so ``/cache/info`` reflects the whole fleet.
  A small thread executor hosts the blocking pool round-trips so the
  event loop never waits on a pipe.  ``/bounds`` is closed-form and
  never worth a pipe round trip: it runs in that thread executor against
  the service's own cache in both modes.

Jobs answer with their strict-JSON body as ``bytes``, encoded once when
the payload is built (:func:`~repro.serve.jobs.run_job_inline`); the
memory tier holds those bytes, so a hot key is answered as stored, with no
copy and no re-encoding, and the tier's byte cap counts body bytes.

Single-flight: the loop keeps one future per in-flight job key.  N
identical concurrent requests await the same future — exactly one build
runs (the acceptance invariant; ``CacheStats.builds`` proves it).
Followers await through :func:`asyncio.shield` so one cancelled client
cannot cancel the shared build under everyone else.

Shared-state discipline (enforced tree-wide by checker RC403): an async
handler may only touch the shared cache inside ``async with self._lock``.
The executor threads rely on the cache's own internal locks instead —
RC403 scopes to coroutines, where a forgotten lock interleaves at every
``await`` and corrupts LRU bookkeeping silently.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import sys
from dataclasses import dataclass

from repro.engine import pool as pool_runtime
from repro.engine.cache import EngineCache, default_cache_root
from repro.serve.http import HttpError, Request, Response, json_response, read_request
from repro.serve.jobs import (
    JOB_KINDS,
    Job,
    parse_job,
    run_job_inline,
    run_job_pooled,
)

__all__ = ["ServeConfig", "ExpansionService", "run"]

#: Threads for the inline (workers == 0) executor.
_INLINE_THREADS = 4


@dataclass(frozen=True)
class ServeConfig:
    """Operator-facing knobs (the ``python -m repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8077
    workers: int = 0  # 0 = in-process thread executor
    cache_dir: str | None = None
    disk: bool = True
    memory_items: int = 64
    memory_bytes: int | None = 512 * 1024 * 1024


class ExpansionService:
    """The HTTP service over one concurrency-hardened engine cache."""

    def __init__(self, config: ServeConfig, cache: EngineCache | None = None) -> None:
        self.config = config
        if cache is not None:
            self.cache = cache  # injected by tests/bench; caps are theirs
        else:
            root = config.cache_dir if config.cache_dir is not None else default_cache_root()
            self.cache = EngineCache(
                root,
                disk=config.disk,
                memory_items=config.memory_items,
                memory_bytes=config.memory_bytes,
            )
        self._lock = asyncio.Lock()  # guards _inflight and shared-cache access
        self._inflight: dict[str, asyncio.Future[bytes]] = {}
        self._pool_root: str | None = None
        self._executor: concurrent.futures.Executor | None = None
        self._server: asyncio.Server | None = None
        self.requests = 0
        self.errors = 0
        self.deduped = 0

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (differs from config when it asked for port 0)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        if self.config.workers > 0:
            # Jobs run on the shared persistent pool; pre-warm it here so the
            # first request finds live workers.  The thread executor only
            # hosts the blocking pool round-trips (one thread per concurrent
            # pooled job), keeping the event loop off the pipes.
            self._pool_root = str(self.cache.root) if self.cache.disk_enabled else None
            pool_runtime.prewarm(self.config.workers)
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.config.workers, thread_name_prefix="serve-pool"
            )
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=_INLINE_THREADS, thread_name_prefix="serve"
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        async with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        for fut in pending:
            fut.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # connection handling                                                  #
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(400, {"error": exc.message}).encode(keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.handle(request)
                keep_alive = request.keep_alive and response.status < 500
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def handle(self, request: Request) -> Response:
        """Route one request; exceptions become structured error responses."""
        self.requests += 1
        try:
            return await self._route(request)
        except (KeyError, ValueError) as exc:
            # Domain errors (unknown scheme, bad parameter, over-cap sweep):
            # the client's fault, not the service's.
            self.errors += 1
            message = exc.args[0] if exc.args else str(exc)
            return json_response(400, {"error": str(message)})
        except Exception as exc:  # repro: ignore[RC601] fault barrier for the accept loop
            self.errors += 1
            return json_response(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _route(self, request: Request) -> Response:
        if request.method != "GET":
            return json_response(405, {"error": f"method {request.method} not allowed"})
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return json_response(200, {"status": "ok"})
        if path == "/cache/info":
            async with self._lock:
                info = self.cache.info()
            info["service"] = {
                "requests": self.requests,
                "errors": self.errors,
                "deduped": self.deduped,
                "inflight": len(self._inflight),
                "workers": self.config.workers,
            }
            info["pool"] = pool_runtime.pool_info()
            return json_response(200, info)
        kind = path.lstrip("/")
        if kind not in JOB_KINDS:
            return json_response(404, {"error": f"no route for {request.path!r}"})
        job = parse_job(kind, request.query)
        return Response(200, await self._submit(job.key(), job))

    # ------------------------------------------------------------------ #
    # single-flight dispatch                                               #
    # ------------------------------------------------------------------ #

    async def _submit(self, key: str, job: Job) -> bytes:
        """Deduplicated dispatch: one build per key, however many awaiters."""
        async with self._lock:
            fut = self._inflight.get(key)
            if fut is not None:
                self.deduped += 1
            else:
                cached = self.cache.get_object(key)
                if cached is not None:
                    return cached  # immutable bytes: shared, not copied
                fut = asyncio.ensure_future(self._dispatch(key, job))
                self._inflight[key] = fut
        # shield: a cancelled follower must not cancel the shared build.
        return await asyncio.shield(fut)

    async def _dispatch(self, key: str, job: Job) -> bytes:
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        try:
            if self.config.workers > 0 and job.kind != "bounds":
                body, delta = await loop.run_in_executor(
                    self._executor, run_job_pooled, job, self._pool_root
                )
                async with self._lock:
                    self.cache.merge_stats(delta)
                    self.cache.put_object(key, body)
            else:
                body = await loop.run_in_executor(
                    self._executor, run_job_inline, job, self.cache
                )
        finally:
            async with self._lock:
                self._inflight.pop(key, None)
        return body


def run(config: ServeConfig) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    service = ExpansionService(config)

    async def _main() -> None:
        await service.start()
        print(
            f"[serve] listening on http://{config.host}:{service.port} "
            f"(workers={config.workers}, cache={service.cache.root}"
            f"{'' if service.cache.disk_enabled else ', memory-only'})",
            file=sys.stderr,
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    return 0
