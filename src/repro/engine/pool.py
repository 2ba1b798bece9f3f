"""Process-wide persistent worker-pool runtime shared by every parallel call site.

Before this module, each parallel surface paid full spawn-pool startup per
call: :func:`repro.engine.grid.run_grid` built a fresh ``spawn`` pool per
sweep, the exact-expansion engine built one per graph, and the serving
layer's process executor booted cold caches per restart.  A spawned worker
costs a fresh interpreter plus the imports of the tasks it runs — often
more than the sharded scan it parallelizes.  Because the package inits
resolve their names lazily (:mod:`repro._lazy`), a worker that runs exact
scans loads numpy, this module, :mod:`repro.core.exact` and
:mod:`repro.cdag` (about 270 modules, no scipy); a worker that runs cached
spectral work loads scipy when its first eigensolve does.  This module
keeps **one warm pool per process** and ships work to it as lightweight
per-task context messages instead of per-pool ``initializer=`` plumbing:

* cached work — grid points, scaling points, serve jobs — ships as
  ``(fn, item, cache_root)`` through :func:`map_cached` / :func:`cached_task`:
  the worker runs ``fn(item, cache=...)`` against its memoized
  :func:`worker_cache` for that root and returns the result together with
  its cache-counter delta;
* exact scans ship a shared-memory handle whose scan context (the
  ``_SearchCtx`` both exact kernels read) a worker installs once per graph
  (:func:`worker_ctx`) and reuses across all of that graph's prefix spans.

Transport is a duplex pipe per worker carrying pickle **protocol 5**
frames with out-of-band buffers: contiguous arrays in a task or result are
sent as raw buffers after the pickle payload, never copied through the
pickle stream itself.  For data a worker re-reads across many tasks (the
exact scan's adjacency rows and its cross-shard running minimum) the call
sites use ``multiprocessing.shared_memory`` segments instead — see
:func:`create_shm` / :func:`attach_shm` / :class:`SharedMinimum`.

Submission is adaptively chunked: :func:`submit_batch` splits the task
list into roughly ``4 × workers`` contiguous chunks (override with
``chunksize=``), self-schedules chunks onto whichever worker frees up
first, and reassembles results **in task order** — deterministic output
for every worker count, which the exact engine's lexicographic
``(h, mask)`` merge and the grid's row order rely on.

Lifecycle and failure semantics:

* the pool starts lazily on first pooled batch and grows (never shrinks)
  up to ``REPRO_POOL_JOBS`` (default: ``max(8, cpu_count)``); a warm
  second sweep dispatches onto already-live workers with zero new
  processes;
* ``REPRO_POOL=0`` is the kill switch — every ``submit_*`` call runs its
  tasks inline (serially, in-process) instead;
* a broken pool (a worker segfaulted or was killed) is respawned **once**
  per process and the batch retried; a second breakage switches the
  runtime into permanent serial fallback, with the reason queryable via
  :func:`serial_fallback_reason`;
* an ``atexit`` hook stops the workers at interpreter shutdown.

Telemetry mirrors ``EngineCache.stats_snapshot()``: monotone counters
(``pool_starts``, ``workers_spawned``, ``tasks_dispatched``,
``warm_dispatches``, ``respawns``, ``serial_tasks``) exposed through
:func:`pool_stats_snapshot` / :class:`PoolStats` and surfaced into bench
JSON (the per-workload ``pool`` block) and ``/cache/info``.

Inside a worker the runtime is inert: ``submit_*`` runs inline (no nested
pools), so call sites never need to guard against recursive fan-out.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnContext

    from repro.engine.cache import EngineCache

__all__ = [
    "POOL_ENV",
    "POOL_JOBS_ENV",
    "PoolStats",
    "SharedMinimum",
    "attach_shm",
    "cached_task",
    "create_shm",
    "in_worker",
    "map_cached",
    "max_pool_workers",
    "pool_enabled",
    "pool_info",
    "pool_stats_snapshot",
    "prewarm",
    "serial_fallback_reason",
    "shutdown_pool",
    "submit_batch",
    "submit_one",
    "worker_cache",
    "worker_ctx",
]

#: Kill switch: ``REPRO_POOL=0`` forces every submission to run inline.
POOL_ENV = "REPRO_POOL"

#: Pool-size cap: the pool never grows beyond this many workers (default:
#: ``max(8, os.cpu_count())``), whatever width the call sites request.
POOL_JOBS_ENV = "REPRO_POOL_JOBS"

#: Target chunks per worker for auto chunking: small enough to load-balance
#: uneven tasks, large enough to amortize the per-chunk round trip.
_CHUNKS_PER_WORKER = 4

#: Per-worker context-store capacity (see :func:`worker_ctx`).
_CTX_STORE_MAX = 8


# ---------------------------------------------------------------------- #
# telemetry                                                               #
# ---------------------------------------------------------------------- #


@dataclass
class PoolStats:
    """Monotone pool counters (the ``EngineCache.stats_snapshot`` idiom)."""

    pool_starts: int = 0  # cold pool boots (0 → ≥1 live workers)
    workers_spawned: int = 0  # worker processes ever spawned
    tasks_dispatched: int = 0  # tasks shipped to pool workers
    warm_dispatches: int = 0  # pooled batches that spawned zero new workers
    respawns: int = 0  # broken-pool recoveries
    serial_tasks: int = 0  # tasks run inline (kill switch / fallback / width 1)

    def as_dict(self) -> dict[str, int]:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}


# ---------------------------------------------------------------------- #
# wire protocol: pickle protocol 5 with out-of-band buffers               #
# ---------------------------------------------------------------------- #


def _send_msg(conn: "Connection", obj: Any) -> None:
    """One frame: buffer count, protocol-5 payload, then each raw buffer.

    ``buffer_callback`` diverts every picklable out-of-band buffer (numpy
    arrays, bytearrays, ...) around the pickle stream, so large arrays go
    over the pipe as single contiguous writes with no pickle-side copy.
    """
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    conn.send_bytes(struct.pack("<I", len(buffers)))
    conn.send_bytes(payload)
    for buf in buffers:
        conn.send_bytes(buf.raw())


def _recv_msg(conn: "Connection") -> Any:
    (n_buffers,) = struct.unpack("<I", conn.recv_bytes())
    payload = conn.recv_bytes()
    buffers = [conn.recv_bytes() for _ in range(n_buffers)]
    return pickle.loads(payload, buffers=buffers)


# ---------------------------------------------------------------------- #
# worker side                                                             #
# ---------------------------------------------------------------------- #

_IN_WORKER = False
_CTX_STORE: "OrderedDict[str, Any]" = OrderedDict()


def in_worker() -> bool:
    """True inside a pool worker process (where ``submit_*`` runs inline)."""
    return _IN_WORKER


def worker_ctx(token: str, build: Callable[[], Any]) -> Any:
    """Per-process context store: install once under ``token``, reuse after.

    The replacement for per-pool ``initializer=`` plumbing: a task message
    carries a small content token (a cache root, a graph digest) and the
    worker materializes the heavy context (an :class:`EngineCache`, an
    exact-scan table set) on first sight, then reuses it for every later
    task with the same token — across batches and across call sites,
    because the pool itself is persistent.  Bounded LRU, so a long session
    touching many graphs cannot grow worker memory without bound.

    Also callable in the parent process (serial fallback runs tasks
    inline), where it memoizes exactly the same way.
    """
    try:
        value = _CTX_STORE[token]
    except KeyError:
        value = build()
        _CTX_STORE[token] = value
    _CTX_STORE.move_to_end(token)
    while len(_CTX_STORE) > _CTX_STORE_MAX:
        _CTX_STORE.popitem(last=False)
    return value


def worker_cache(root: str | None) -> "EngineCache":
    """The per-process :class:`EngineCache` for ``root`` (memoized).

    Workers share the parent's *disk* root (atomic writes make concurrent
    population safe) but keep private memory tiers and counters; tasks
    return counter deltas for the parent to merge.  ``None`` means a
    process-local memory-only cache — still warm across tasks and batches.
    """
    from repro.engine.cache import EngineCache

    cache = worker_ctx(
        f"engine-cache:{root if root is not None else '<memory>'}",
        lambda: EngineCache(root) if root is not None else EngineCache(disk=False),
    )
    assert isinstance(cache, EngineCache)
    return cache


def _worker_main(conn: "Connection") -> None:
    """Worker loop: recv ``("task", seq, fn, chunk)`` frames, send results.

    A task exception is shipped back as an ``("err", ...)`` frame (the
    pool re-raises it in the parent); only transport failure — the parent
    vanished — ends the loop besides an explicit ``("stop",)``.
    """
    global _IN_WORKER
    _IN_WORKER = True
    while True:
        try:
            msg = _recv_msg(conn)
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _tag, seq, fn, chunk = msg
        try:
            reply: tuple[str, int, Any] = ("ok", seq, [fn(task) for task in chunk])
        except BaseException as exc:  # repro: ignore[RC601] shipped to the parent, which re-raises
            try:
                pickle.dumps(exc, protocol=5)
            except Exception:  # repro: ignore[RC601] unpicklable exception: degrade to repr
                exc = RuntimeError(f"pool task failed: {type(exc).__name__}: {exc}")
            reply = ("err", seq, exc)
        try:
            _send_msg(conn, reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------- #
# the pool                                                                #
# ---------------------------------------------------------------------- #


class _PoolBroken(RuntimeError):
    """Transport-level pool failure (a worker died mid-protocol)."""


class _Worker:
    def __init__(self, ctx: "SpawnContext", index: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-pool-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()  # the parent's copy; the child holds its own
        self.conn = parent_conn

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self, timeout: float = 0.5) -> None:
        try:
            _send_msg(self.conn, ("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        self.conn.close()


class _WorkerPool:
    """The persistent pool: lazy spawn-up, idle checkout, chunk scheduling."""

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._cond = threading.Condition()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._spawned = 0
        self._closed = False

    @property
    def size(self) -> int:
        with self._cond:
            return len(self._workers)

    def ensure(self, want: int) -> int:
        """Grow the pool toward ``want`` live workers; returns # spawned."""
        spawned = 0
        with self._cond:
            while not self._closed and len(self._workers) < want:
                w = _Worker(self._ctx, self._spawned)
                self._spawned += 1
                self._workers.append(w)
                self._idle.append(w)
                spawned += 1
            self._cond.notify_all()
        return spawned

    def _checkout(self, want: int) -> list[_Worker]:
        """Block until ≥ 1 idle worker, then take up to ``want`` of them."""
        with self._cond:
            while not self._idle:
                if self._closed:
                    raise _PoolBroken("pool closed while waiting for a worker")
                self._cond.wait()
            got = []
            while self._idle and len(got) < want:
                got.append(self._idle.pop())
            return got

    def _checkin(self, workers: list[_Worker]) -> None:
        with self._cond:
            for w in workers:
                if w.alive() and not self._closed:
                    self._idle.append(w)
                else:
                    if w in self._workers:
                        self._workers.remove(w)
            self._cond.notify_all()

    def run_batch(
        self, fn: Callable[[Any], Any], chunks: list[list[Any]], workers: int
    ) -> list[Any]:
        """Self-scheduling dispatch: chunks go to whichever worker frees up
        first; results reassemble by chunk index (deterministic order)."""
        got = self._checkout(min(workers, len(chunks)))
        try:
            results: list[list[Any] | None] = [None] * len(chunks)
            pending: dict[Any, tuple[_Worker, int]] = {}
            next_chunk = 0
            failure: BaseException | None = None

            def _dispatch(w: _Worker) -> None:
                nonlocal next_chunk
                seq = next_chunk
                next_chunk += 1
                try:
                    _send_msg(w.conn, ("task", seq, fn, chunks[seq]))
                except (BrokenPipeError, OSError) as exc:
                    raise _PoolBroken(f"worker {w.proc.name} died: {exc}") from exc
                pending[w.conn] = (w, seq)

            for w in got:
                if next_chunk < len(chunks):
                    _dispatch(w)
            while pending:
                for conn in multiprocessing.connection.wait(list(pending)):
                    w, seq = pending.pop(conn)
                    try:
                        tag, rseq, payload = _recv_msg(w.conn)
                    except (EOFError, OSError) as exc:
                        raise _PoolBroken(f"worker {w.proc.name} died: {exc}") from exc
                    if tag == "ok" and rseq == seq:
                        results[seq] = payload
                        if failure is None and next_chunk < len(chunks):
                            _dispatch(w)
                    elif tag == "err":
                        # Remember the first failure but keep draining the
                        # outstanding chunks, so every checked-out worker is
                        # quiescent before it goes back to the idle list.
                        if failure is None:
                            failure = payload
                    else:
                        raise _PoolBroken(f"worker {w.proc.name} broke protocol: {tag!r}")
            if failure is not None:
                raise failure
            out: list[Any] = []
            for chunk_result in results:
                assert chunk_result is not None  # all seqs completed above
                out.extend(chunk_result)
            return out
        finally:
            self._checkin(got)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers.clear()
            self._idle.clear()
            self._cond.notify_all()
        for w in workers:
            w.stop()


# ---------------------------------------------------------------------- #
# module-level runtime (the process-wide singleton)                       #
# ---------------------------------------------------------------------- #

_STATE_LOCK = threading.RLock()
_POOL: _WorkerPool | None = None
_FALLBACK_REASON: str | None = None
_STATS = PoolStats()


def pool_enabled() -> bool:
    """Whether submissions may use worker processes *right now*.

    Reads ``REPRO_POOL`` per call (so tests can flip it at runtime), and is
    False inside pool workers (no nested pools) and after the runtime has
    dropped into permanent serial fallback.
    """
    if _IN_WORKER:
        return False
    if os.environ.get(POOL_ENV, "1") == "0":
        return False
    return _FALLBACK_REASON is None


def max_pool_workers() -> int:
    """The pool-size cap: ``REPRO_POOL_JOBS``, else ``max(8, cpu_count)``.

    The default is a runaway backstop, not a parallelism heuristic: an
    explicit ``workers=4`` request should win even on a small machine
    (the sweeps ask for 2-4 and a warm pool amortizes the spawns), so the
    cap only clamps on boxes with more cores or via the env override.
    """
    raw = os.environ.get(POOL_JOBS_ENV)
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(8, os.cpu_count() or 1)


def serial_fallback_reason() -> str | None:
    """Why the runtime is permanently serial, or None while it is not."""
    return _FALLBACK_REASON


def pool_stats_snapshot() -> dict[str, int]:
    """Point-in-time copy of the pool counters (bench/`/cache/info` feed)."""
    with _STATE_LOCK:
        return _STATS.as_dict()


def pool_info() -> dict[str, Any]:
    """One inspectable snapshot: knobs, live size, fallback state, counters."""
    with _STATE_LOCK:
        return {
            "enabled": pool_enabled(),
            "in_worker": _IN_WORKER,
            "live_workers": _POOL.size if _POOL is not None else 0,
            "max_workers": max_pool_workers(),
            "serial_fallback": _FALLBACK_REASON,
            "stats": _STATS.as_dict(),
        }


def _ensure_pool() -> _WorkerPool:
    global _POOL
    with _STATE_LOCK:
        if _POOL is None:
            _POOL = _WorkerPool()
            _STATS.pool_starts += 1
        return _POOL


def _discard_pool(pool: _WorkerPool) -> None:
    """Tear one (broken) pool down; a later batch may start a fresh one."""
    global _POOL
    with _STATE_LOCK:
        if _POOL is pool:
            _POOL = None
    pool.close()


def shutdown_pool() -> None:
    """Stop all workers (tests, bench cold runs, and the ``atexit`` hook).

    Purely a lifecycle operation: counters and the fallback state survive,
    and the next pooled submission simply boots a fresh pool.
    """
    global _POOL
    with _STATE_LOCK:
        pool = _POOL
        _POOL = None
    if pool is not None:
        pool.close()


def prewarm(workers: int) -> int:
    """Spawn up to ``workers`` pool processes now (e.g. at service start),
    so the first real batch finds them warm.  Returns the live pool size."""
    if workers <= 0 or not pool_enabled():
        return 0
    pool = _ensure_pool()
    with _STATE_LOCK:
        _STATS.workers_spawned += pool.ensure(min(workers, max_pool_workers()))
    return pool.size


def _chunk_tasks(tasks: list[Any], workers: int, chunksize: int | None) -> list[list[Any]]:
    if chunksize is None:
        chunksize = max(1, math.ceil(len(tasks) / (workers * _CHUNKS_PER_WORKER)))
    return [tasks[i : i + chunksize] for i in range(0, len(tasks), chunksize)]


def _run_serial(fn: Callable[[Any], Any], tasks: list[Any]) -> list[Any]:
    with _STATE_LOCK:
        _STATS.serial_tasks += len(tasks)
    return [fn(task) for task in tasks]


def _run_pooled(fn: Callable[[Any], Any], tasks: list[Any], chunks: list[list[Any]], workers: int) -> list[Any]:
    """Pool dispatch with the recovery ladder: one respawn, then serial."""
    global _FALLBACK_REASON
    while True:
        pool = _ensure_pool()
        with _STATE_LOCK:
            spawned = pool.ensure(min(workers, max_pool_workers()))
            _STATS.workers_spawned += spawned
            _STATS.tasks_dispatched += len(tasks)
            if spawned == 0:
                _STATS.warm_dispatches += 1
        try:
            return pool.run_batch(fn, chunks, workers)
        except _PoolBroken as exc:
            _discard_pool(pool)
            with _STATE_LOCK:
                if _STATS.respawns == 0:
                    _STATS.respawns += 1
                    retry = True
                else:
                    _FALLBACK_REASON = (
                        f"pool broke again after its one respawn: {exc}"
                    )
                    retry = False
            if not retry:
                return _run_serial(fn, tasks)


def submit_batch(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    chunksize: int | None = None,
) -> list[Any]:
    """Run ``fn`` over ``tasks`` on the shared pool; results in task order.

    ``fn`` must be a module-level picklable function (checker RC401's
    contract) taking one task message.  ``workers`` is clamped to the task
    count and the ``REPRO_POOL_JOBS`` cap; a width of 1, the kill switch,
    worker context, or permanent fallback all run the batch inline —
    bit-identical results either way, which callers rely on.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = max(1, min(workers, len(tasks), max_pool_workers()))
    if workers <= 1 or not pool_enabled():
        return _run_serial(fn, tasks)
    return _run_pooled(fn, tasks, _chunk_tasks(tasks, workers, chunksize), workers)


def submit_one(fn: Callable[[Any], Any], task: Any) -> Any:
    """Ship a single task to one pool worker (the serving layer's shape).

    Concurrent callers (executor threads) each check out their own worker,
    so distinct jobs overlap across processes while every call keeps the
    plain call-and-return shape.  Inline when the pool is unavailable.
    """
    if not pool_enabled():
        with _STATE_LOCK:
            _STATS.serial_tasks += 1
        return fn(task)
    return _run_pooled(fn, [task], [[task]], 1)[0]


def cached_task(
    msg: tuple[Callable[..., Any], Any, str | None],
) -> tuple[Any, dict[str, int]]:
    """The pool entry for cached work: ``(fn(item, cache=...), counter delta)``.

    ``msg`` is ``(fn, item, root)``: a module-level callable (or a
    ``functools.partial`` of one), one work item, and the parent cache's
    disk root (``None``: memory-only).  ``fn`` runs against this process's
    :func:`worker_cache` for ``root``; the delta covers exactly this task,
    so the parent can merge it however tasks interleave across workers.
    """
    fn, item, root = msg
    cache = worker_cache(root)
    before = cache.stats_snapshot()
    result = fn(item, cache=cache)
    return result, cache.stats.delta_since(before)


def map_cached(
    fn: Callable[..., Any],
    items: Sequence[Any],
    cache: "EngineCache",
    workers: int,
) -> tuple[list[Any], dict[str, int]]:
    """``[fn(item, cache=...) for item in items]`` plus the cache-counter delta.

    At width 1 (after clamping to the item count) the items run serially
    against ``cache`` itself.  Wider maps go through :func:`submit_batch`
    to :func:`cached_task` (``fn`` must pickle, checker RC401): workers use
    private caches over ``cache``'s disk root, and their per-task deltas
    are summed.  Results come back in item order either way.
    """
    from repro.engine.cache import CacheStats

    items = list(items)
    if min(workers, len(items)) <= 1:
        before = cache.stats_snapshot()
        results = [fn(item, cache=cache) for item in items]
        return results, cache.stats.delta_since(before)
    root = str(cache.root) if cache.disk_enabled else None
    totals = CacheStats()
    results = []
    for result, delta in submit_batch(
        cached_task, [(fn, item, root) for item in items], workers=workers
    ):
        results.append(result)
        totals.merge(delta)
    return results, totals.as_dict()


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------- #
# shared-memory helpers (the exact scan's bulk-data path)                 #
# ---------------------------------------------------------------------- #


def create_shm(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh shared-memory segment, owned (and later unlinked) by the caller."""
    return shared_memory.SharedMemory(create=True, size=nbytes)


def attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Python < 3.13 auto-registers every attach with the resource tracker.
    Spawn children share the parent's tracker process, so an attach-then-
    ``unregister`` from a worker would *deregister the parent's ownership*
    (the tracker keeps a set, not a refcount) and make the parent's
    ``unlink`` fail inside the tracker.  Instead we suppress registration
    for the duration of the attach — safe because pool workers are
    single-threaded and the serial-fallback path attaches from one thread.
    3.13+ has ``track=False`` for exactly this.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedMinimum:
    """A cross-process running minimum: one aligned float64 in shared memory.

    The exact span kernels' running minimum: the numpy kernel
    (``_scan_span``) reads ``.value`` whenever it refreshes its pruning
    threshold and writes a better ratio under ``get_lock()``; the native
    kernel compare-and-swaps the float64 at :meth:`addr`.  The lock is
    process-local, so cross-process updates race benignly — that is safe
    here because every written value is a genuine candidate ratio (the
    minimum only *tightens* pruning, never decides the winner), aligned
    8-byte stores do not tear, and the final ``(h, mask)`` reduction never
    reads it.
    """

    def __init__(self, buf: memoryview, offset: int = 0) -> None:
        self._arr: Any = np.frombuffer(buf, dtype=np.float64, count=1, offset=offset)
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return float(self._arr[0])

    @value.setter
    def value(self, v: float) -> None:
        self._arr[0] = v

    def get_lock(self) -> threading.Lock:
        return self._lock

    def addr(self) -> int:
        """The in-process address of the float64 (for the C kernel's CAS)."""
        return int(self._arr.ctypes.data)

    def close(self) -> None:
        """Drop the buffer export so the segment's mmap can close cleanly."""
        self._arr = None
