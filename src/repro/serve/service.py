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

Framing: each connection is one :class:`_Connection` protocol.  Bytes go
into a buffer, and :func:`~repro.serve.http.parse_request` takes complete
requests off its front, so pipelined requests are answered in order.

Two tiers: engine artifacts (CDAGs, spectra, estimates) live in
``cache`` under the ``--memory-items`` LRU; jobs answer with their
strict-JSON body as ``bytes``, encoded once when the payload is built
(:func:`~repro.serve.jobs.run_job_inline`), and those bodies live in
``body_cache``, a second, memory-only ``EngineCache`` with a share of the
``--memory-mb`` budget.  A cold-tail artifact therefore never evicts a
hot answer, and a hot key is answered as stored, with no copy and no
re-encoding.

Stored-bytes lane: the service memoises each job target it has parsed
(raw target → ``(key, job)``, at most ``_JOB_MEMO_ITEMS`` entries, cleared
when full).  When a GET's raw target is memoised, its key is not in
flight and its body is in ``body_cache``, the connection writes the
answer from the protocol callback itself — no task, no coroutine, no
query parsing.  Every other request goes through the async
:meth:`ExpansionService.handle` in one task, and the requests behind it
on that connection wait in the buffer until it is answered.

Single-flight: the loop keeps one future per in-flight job key.  N
identical concurrent requests await the same future — exactly one build
runs (the acceptance invariant; ``CacheStats.builds`` proves it).
Followers await through :func:`asyncio.shield` so one cancelled client
cannot cancel the shared build under everyone else.

Shared-state discipline (enforced tree-wide by checker RC403): an async
handler may only touch the shared caches inside ``async with self._lock``.
The executor threads rely on the cache's own internal locks instead —
RC403 scopes to coroutines, where a forgotten lock interleaves at every
``await`` and corrupts LRU bookkeeping silently.  The lane needs no
asyncio lock: it is a plain callback on the loop thread, so no coroutine
runs between its in-flight check and its body lookup, and no coroutine
holds ``self._lock`` across an ``await`` (every locked block here is
await-free), so the lane never sees a half-done critical section.  The
body lookup itself is atomic against executor threads through the
cache's own lock.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import sys
from dataclasses import dataclass

from repro.engine import pool as pool_runtime
from repro.engine.cache import EngineCache, default_cache_root
from repro.serve.http import HttpError, Request, Response, json_response, parse_request
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

#: Memoised job targets kept before the memo is cleared.
_JOB_MEMO_ITEMS = 1024

#: The body tier's share of ``memory_bytes`` is 1/_BODY_SHARE; artifacts
#: keep the rest.  Bodies are small, so the tier's item cap only bounds it
#: when ``memory_bytes`` is None.
_BODY_SHARE = 4
_BODY_ITEMS = 1 << 16

#: Buffered bytes of pipelined requests after which a connection whose
#: current request is still being answered stops reading.
_PIPELINE_BYTES = 1 << 16


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
        budget = config.memory_bytes
        body_bytes = None if budget is None else budget // _BODY_SHARE
        if cache is not None:
            self.cache = cache  # injected by tests/bench; caps are theirs
        else:
            root = config.cache_dir if config.cache_dir is not None else default_cache_root()
            self.cache = EngineCache(
                root,
                disk=config.disk,
                memory_items=config.memory_items,
                memory_bytes=None if budget is None else budget - body_bytes,
            )
        self.body_cache = EngineCache(disk=False, memory_items=_BODY_ITEMS, memory_bytes=body_bytes)
        self._lock = asyncio.Lock()  # guards _inflight and shared-cache access
        self._inflight: dict[str, asyncio.Future[bytes]] = {}
        self._jobs: dict[str, tuple[str, Job]] = {}  # raw target -> (key, job)
        self._connections: set[_Connection] = set()
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for conn in list(self._connections):
                conn.close()
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
    # request handling                                                     #
    # ------------------------------------------------------------------ #

    def stored_body(self, request: Request) -> bytes | None:
        """The stored-bytes lane: the body of a memoised, settled GET, or None.

        Synchronous, for the protocol callback; a None sends the request
        through :meth:`handle`, whose build then counts the one miss.
        """
        if request.method != "GET":
            return None
        entry = self._jobs.get(request.target)
        if entry is None or entry[0] in self._inflight:
            return None
        body = self.body_cache.get_object(entry[0], count_miss=False)
        if body is not None:
            self.requests += 1
        return body

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
        entry = self._jobs.get(request.target)
        if entry is None:
            path = request.path.rstrip("/") or "/"
            if path == "/healthz":
                return json_response(200, {"status": "ok"})
            if path == "/cache/info":
                return json_response(200, await self._info())
            kind = path.lstrip("/")
            if kind not in JOB_KINDS:
                return json_response(404, {"error": f"no route for {request.path!r}"})
            job = parse_job(kind, request.query)
            if len(self._jobs) >= _JOB_MEMO_ITEMS:
                self._jobs.clear()
            entry = self._jobs[request.target] = (job.key(), job)
        return Response(200, await self._submit(*entry))

    async def _info(self) -> dict:
        """``/cache/info``: ``stats`` sums both tiers, ``tiers`` splits them."""
        async with self._lock:
            info = self.cache.info()
            bodies = self.body_cache.info()
        tiers = {
            "artifacts": {"memory": info["memory"], "stats": info["stats"]},
            "bodies": {"memory": bodies["memory"], "stats": bodies["stats"]},
        }
        info["stats"] = {k: v + bodies["stats"][k] for k, v in info["stats"].items()}
        info["tiers"] = tiers
        info["service"] = {
            "requests": self.requests,
            "errors": self.errors,
            "deduped": self.deduped,
            "inflight": len(self._inflight),
            "workers": self.config.workers,
        }
        info["pool"] = pool_runtime.pool_info()
        return info

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
                # A miss is counted once, by the build's own lookup
                # (``memoize`` here or in the pool worker), not here too.
                cached = self.body_cache.get_object(key, count_miss=False)
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
                    self.body_cache.put_object(key, body)
            else:
                body = await loop.run_in_executor(
                    self._executor, run_job_inline, job, self.cache, self.body_cache
                )
        finally:
            async with self._lock:
                self._inflight.pop(key, None)
        return body


class _Connection(asyncio.Protocol):
    """One client connection: buffer, parse, answer in request order.

    At most one request per connection is in :meth:`ExpansionService.handle`
    at a time; requests behind it stay in the buffer.  Reading pauses
    while that buffer outgrows ``_PIPELINE_BYTES`` behind a pending answer,
    and answering pauses while the transport's write buffer is full.
    """

    _transport: asyncio.Transport  # set by connection_made, before any other call

    def __init__(self, service: ExpansionService) -> None:
        self._service = service
        self._buffer = bytearray()
        self._task: asyncio.Task[None] | None = None
        self._write_paused = False
        self._read_paused = False
        self._eof = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._service._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._service._connections.discard(self)
        if self._task is not None:
            self._task.cancel()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._task is None and not self._write_paused:
            self._answer_buffered()
        elif len(self._buffer) > _PIPELINE_BYTES and not self._read_paused:
            self._read_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        # Keep the transport open for the answers still owed; the buffer's
        # last complete request is answered before the connection closes.
        self._eof = True
        if self._task is None and not self._write_paused:
            self._answer_buffered()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._task is None:
            self._answer_buffered()

    def close(self) -> None:
        self._transport.close()

    def _answer_buffered(self) -> None:
        """Answer buffered requests in order until one needs :meth:`handle`."""
        transport = self._transport
        if self._read_paused:
            self._read_paused = False
            transport.resume_reading()
        while not (self._write_paused or transport.is_closing()):
            try:
                request = parse_request(self._buffer)
            except HttpError as exc:
                transport.write(json_response(400, {"error": exc.message}).encode(keep_alive=False))
                transport.close()
                return
            if request is None:
                if self._eof:
                    transport.close()
                return
            body = self._service.stored_body(request)
            if body is None:
                self._task = asyncio.get_running_loop().create_task(self._answer(request))
                return
            self._respond(request, Response(200, body))

    async def _answer(self, request: Request) -> None:
        response = await self._service.handle(request)
        self._task = None
        if self._transport.is_closing():
            return
        self._respond(request, response)
        if not self._write_paused:
            self._answer_buffered()

    def _respond(self, request: Request, response: Response) -> None:
        keep_alive = request.keep_alive and response.status < 500
        self._transport.write(response.encode(keep_alive=keep_alive))
        if not keep_alive:
            self._transport.close()


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
