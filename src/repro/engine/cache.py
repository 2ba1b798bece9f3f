"""Content-addressed on-disk cache for built CDAGs, spectra, and estimates.

The experiments all analyze ``Dec_k C``-style graphs whose size grows as
Θ(m₀^k); rebuilding them (and re-running eigensolves) for every sweep point
dominated run time at the seed.  This module memoizes the three expensive
artifact kinds across processes and runs:

* **graphs** — the edge/kind/level arrays of a built :class:`CDAG`;
* **spectra** — the two smallest eigenpairs of the regularized Laplacian;
* **estimates** — :class:`~repro.core.expansion.ExpansionEstimate` plus its
  witness mask.

Keys are *content-addressed*: a SHA-256 over the scheme's actual coefficient
matrices (not just its registry name), the recursion depth, the build
options, and :data:`CACHE_NAMESPACE`, a digest of the package source.
Changing a scheme's U/V/W, any build flag, or any line of code
automatically misses the old entries — there is no manual invalidation
protocol beyond ``clear()``, which also reclaims the space of namespaces
that older code left on disk.

Layout: ``<root>/<key[:2]>/<key>.npz``, written atomically (tmp file +
``os.replace``) so concurrent worker processes can share one cache
directory without locks.  The root defaults to ``~/.cache/repro-engine``
and is overridable with ``$REPRO_CACHE_DIR`` or per-instance.  A bounded
in-memory layer holds the decoded objects so repeat lookups inside one
process skip both the disk and array re-validation.

Concurrency: every public method is safe to call from multiple threads of
one process (the serving layer's executor threads share one instance).
Every cached artifact goes through :meth:`EngineCache.memoize`, which wraps
the check/build/store cycle in the per-key mutex from
:meth:`EngineCache.lock`, so N concurrent identical requests run the build
exactly once.  Cross-*process* writers need no locks at all: the
atomic-rename protocol makes concurrent same-key writers idempotent.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import threading
import zipfile
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.cdag.schemes import BilinearScheme

__all__ = [
    "CACHE_NAMESPACE",
    "CacheStats",
    "EngineCache",
    "cache_key",
    "default_cache",
    "default_cache_root",
    "scheme_fingerprint",
    "set_default_cache",
    "source_digest",
]


def source_digest(package_root: Path) -> str:
    """SHA-256 over every ``.py`` and ``.c`` file under ``package_root``.

    Files are taken in sorted relative-path order, each relative path hashed
    in front of its bytes; ``__pycache__`` is skipped.  Any source edit —
    to a builder, a cost model, the native kernel — yields a new digest.
    """
    h = hashlib.sha256()
    files = sorted(
        path.relative_to(package_root).as_posix()
        for path in package_root.rglob("*")
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts
    )
    for rel in files:
        h.update(rel.encode() + b"\0")
        h.update((package_root / rel).read_bytes())
    return h.hexdigest()


#: The code half of every key: the digest of the package source that
#: produced the artifact.  Changed code reads a different namespace, so a
#: stale entry can never be served and there is no version to bump.
CACHE_NAMESPACE = source_digest(Path(__file__).resolve().parents[1])

_ENV_VAR = "REPRO_CACHE_DIR"

#: Attempts per put_arrays call before the call is abandoned (transient
#: OSErrors — e.g. one ENOSPC mid-sweep — must not poison later stores).
_DISK_WRITE_ATTEMPTS = 2


@dataclass
class CacheStats:
    """Counters for one cache instance (monotone within a process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    builds: int = 0  # full artifact constructions (cache could not help)
    disk_errors: int = 0  # put_arrays calls that exhausted their retries
    evictions: int = 0  # decoded objects dropped by the memory-tier caps

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter increments since ``snapshot`` (an ``as_dict()`` result)."""
        now = self.as_dict()
        return {k: now[k] - snapshot.get(k, 0) for k in now}

    def merge(self, delta: dict[str, int]) -> None:
        """Fold a ``delta_since`` result from another process into this one."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + int(value))


def scheme_fingerprint(scheme: BilinearScheme) -> str:
    """Short content hash of a scheme's actual coefficients.

    Two schemes with identical (m₀, n₀, p₀, U, V, W) share every cached
    artifact even under different registry names; editing a coefficient or
    reshaping invalidates them.
    """
    h = hashlib.sha256()
    h.update(
        f"m0={scheme.m0}|n0={scheme.n0}|p0={scheme.p0}|t0={scheme.t0}".encode()
    )
    for mat in (scheme.U, scheme.V, scheme.W):
        h.update(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


_PLAIN_SCALARS = (int, float, str, bool)


def _normalize_param(value: Any) -> Any:
    """Decay NumPy scalars (recursively through tuples/lists) to Python ones.

    ``cache_key`` hashes ``repr(value)``, and NumPy 2.x changed scalar reprs
    (``repr(np.float64(1.5)) == 'np.float64(1.5)'``), so without this an
    ``np.int64`` recursion depth and the equal plain ``int`` would land in
    *different* cache entries.  Booleans are checked before integers because
    ``np.bool_`` is not an ``np.integer`` but plain ``bool`` *is* an ``int``
    — ``True`` and ``1`` must keep their distinct reprs.  Exact plain
    Python scalars return first (an exact ``type`` test, so subclasses such
    as ``np.float64`` still take the isinstance chain).
    """
    if type(value) in _PLAIN_SCALARS:
        return value
    if isinstance(value, (tuple, list)):
        return type(value)(_normalize_param(v) for v in value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def cache_key(kind: str, scheme: BilinearScheme | None, **params: Any) -> str:
    """Content-addressed key for one artifact of one scheme.

    ``scheme=None`` is allowed for artifacts with no bilinear scheme behind
    them (e.g. classical grid-algorithm scaling runs).  Numeric parameters
    are normalized first so NumPy scalars and equal Python numbers share a
    key (see :func:`_normalize_param`).
    """
    fp = scheme_fingerprint(scheme) if scheme is not None else "none"
    parts = [CACHE_NAMESPACE, kind, fp]
    parts.extend(f"{name}={_normalize_param(params[name])!r}" for name in sorted(params))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def default_cache_root() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-engine"


def _approx_nbytes(obj: Any, _seen: set[int] | None = None) -> int:
    """Rough decoded-object footprint: array payloads plus container skin.

    Exact accounting is impossible for arbitrary graph objects; what matters
    for the memory-tier byte cap is that ndarray payloads (the only thing
    that gets large here) are counted fully and everything else is bounded
    below by ``sys.getsizeof``.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + sys.getsizeof(obj, 0)
    total = sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        for k, v in obj.items():
            total += _approx_nbytes(k, _seen) + _approx_nbytes(v, _seen)
    elif isinstance(obj, (tuple, list, frozenset)):
        for item in obj:
            total += _approx_nbytes(item, _seen)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            total += _approx_nbytes(v, _seen)
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            total += _approx_nbytes(getattr(obj, name, None), _seen)
    return total


class EngineCache:
    """Two-level (memory + disk) content-addressed artifact cache.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-engine``.
    disk:
        When False, never touch the filesystem (memory-only cache).
    memory_items:
        Decoded-object LRU capacity (whole CDAGs can be large; keep small).
    memory_bytes:
        Optional byte cap on the decoded-object tier (approximate, see
        :func:`_approx_nbytes`).  Objects larger than the cap are served but
        never retained; retained entries evict LRU-first until under the cap.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        disk: bool = True,
        memory_items: int = 32,
        memory_bytes: int | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = CacheStats()
        self._disk = disk
        self._disk_degraded = False  # last put_arrays exhausted its retries
        self._memory_items = memory_items
        self._memory_bytes = memory_bytes
        self._objects: OrderedDict[str, Any] = OrderedDict()
        self._object_sizes: dict[str, int] = {}
        self._objects_nbytes = 0
        # One re-entrant lock covers counters and the memory tier; the
        # per-key locks below serialize whole build cycles instead, and
        # ``_key_users`` counts the threads holding or awaiting each one.
        self._lock = threading.RLock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_users: dict[str, int] = {}

    @property
    def disk_enabled(self) -> bool:
        return self._disk

    @property
    def disk_degraded(self) -> bool:
        """True while the most recent disk write failed (cleared on success)."""
        return self._disk_degraded

    # ------------------------------------------------------------------ #
    # decoded-object layer                                                 #
    # ------------------------------------------------------------------ #

    def get_object(self, key: str, *, count_miss: bool = True) -> Any | None:
        """In-process decoded object for ``key`` (counts a hit or a miss).

        ``count_miss=False`` is for a lookup whose miss falls through to a
        counted one (the serve stored-bytes lane): it counts hits only.
        """
        with self._lock:
            if key in self._objects:
                self._objects.move_to_end(key)
                self.stats.hits += 1
                return self._objects[key]
            if count_miss:
                self.stats.misses += 1
            return None

    def put_object(self, key: str, obj: Any) -> None:
        size = _approx_nbytes(obj) if self._memory_bytes is not None else 0
        with self._lock:
            if self._memory_bytes is not None and size > self._memory_bytes:
                # Larger than the whole tier: serve it, don't retain it.
                self._evict_key(key)
                return
            self._evict_key(key)
            self._objects[key] = obj
            self._object_sizes[key] = size
            self._objects_nbytes += size
            while len(self._objects) > self._memory_items or (
                self._memory_bytes is not None and self._objects_nbytes > self._memory_bytes
            ):
                evicted, _ = self._objects.popitem(last=False)
                self._objects_nbytes -= self._object_sizes.pop(evicted, 0)
                self.stats.evictions += 1

    def _evict_key(self, key: str) -> None:
        """Drop ``key`` from the memory tier without counting an eviction."""
        if key in self._objects:
            del self._objects[key]
            self._objects_nbytes -= self._object_sizes.pop(key, 0)

    # ------------------------------------------------------------------ #
    # build coordination                                                   #
    # ------------------------------------------------------------------ #

    def lock(self, key: str) -> threading.Lock:
        """The per-key mutex serializing concurrent builds of one artifact."""
        with self._lock:
            lk = self._key_locks.get(key)
            if lk is None:
                lk = self._key_locks[key] = threading.Lock()
            return lk

    @contextmanager
    def _building(self, key: str) -> Iterator[None]:
        """Hold ``key``'s lock; drop its table entry once no thread needs it.

        Without the drop a long-running server would keep one lock per
        distinct key it ever built.
        """
        with self._lock:
            lk = self.lock(key)
            self._key_users[key] = self._key_users.get(key, 0) + 1
        try:
            with lk:
                yield
        finally:
            with self._lock:
                self._key_users[key] -= 1
                if not self._key_users[key]:
                    del self._key_users[key], self._key_locks[key]

    def memoize(
        self,
        key: str,
        build: Callable[[], Any],
        *,
        encode: Callable[[Any], dict[str, np.ndarray]] | None = None,
        decode: Callable[[dict[str, np.ndarray]], Any] | None = None,
    ) -> Any:
        """The one cached-build path: memory tier, array tier, then ``build()``.

        A counted memory lookup comes first.  On a miss the per-key lock is
        taken and the memory tier re-checked *without* counting, so threads
        racing for one key build it once.  With ``encode``/``decode`` the
        array tier is consulted next (a hit is decoded), and a full miss
        counts a build, runs ``build()`` and stores ``encode(obj)``; without
        them the object lives in the memory tier only and no build is
        counted (serve payloads).  ``build`` must return a non-None object.
        """
        obj = self.get_object(key)
        if obj is not None:
            return obj
        with self._building(key):
            with self._lock:
                obj = self._objects.get(key)
            if obj is not None:
                return obj
            if encode is None:
                obj = build()
            else:
                assert decode is not None
                data = self.get_arrays(key)
                if data is not None:
                    obj = decode(data)
                else:
                    self.count_build()
                    obj = build()
                    self.put_arrays(key, encode(obj))
            self.put_object(key, obj)
            return obj

    # ------------------------------------------------------------------ #
    # array (disk) layer                                                   #
    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load the stored array bundle for ``key``, or None on a miss."""
        if not self._disk:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            with np.load(self._path(key), allow_pickle=False) as z:
                data = {name: z[name] for name in z.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            # Missing file, unreadable directory, or a truncated/corrupt
            # entry: all are misses — the artifact is simply rebuilt.
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return data

    def put_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Atomically persist an array bundle (best-effort).

        Disk failures are *per call*: each store gets
        ``_DISK_WRITE_ATTEMPTS`` tries, and an exhausted call only marks the
        cache degraded (``disk_degraded`` / ``stats.disk_errors``) — the next
        store retries the disk and clears the flag on success.  A transient
        ENOSPC mid-sweep therefore costs the entries written while full, not
        every later entry of the process's lifetime.
        """
        with self._lock:
            self.stats.stores += 1
        if not self._disk:
            return
        path = self._path(key)
        for attempt in range(_DISK_WRITE_ATTEMPTS):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as f:
                        np.savez(f, **arrays)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            except OSError:
                if attempt + 1 == _DISK_WRITE_ATTEMPTS:
                    with self._lock:
                        self.stats.disk_errors += 1
                        self._disk_degraded = True
            else:
                with self._lock:
                    self._disk_degraded = False
                return

    def count_build(self) -> None:
        """Record one full artifact construction (called by :meth:`memoize`)."""
        with self._lock:
            self.stats.builds += 1

    # ------------------------------------------------------------------ #
    # stats accounting                                                     #
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict (for ``delta_since``)."""
        with self._lock:
            return self.stats.as_dict()

    def merge_stats(self, delta: dict[str, int]) -> None:
        """Fold counter increments from a worker process into this instance.

        The grid runner and the serving layer's process pool both execute
        builds in workers whose caches are separate objects; each worker
        reports ``stats.delta_since(snapshot)`` and the parent merges it here
        so ``info()`` reflects the whole fleet.
        """
        with self._lock:
            self.stats.merge(delta)

    # ------------------------------------------------------------------ #
    # maintenance                                                          #
    # ------------------------------------------------------------------ #

    def clear(self) -> int:
        """Drop the memory layer and delete all on-disk entries; returns the
        number of files removed.

        Honest after degradation: a failed *write* never hides existing
        on-disk entries from ``clear()`` — only a cache constructed with
        ``disk=False`` skips the filesystem.  Emptied shard directories are
        pruned, and the degraded flag resets (nothing left to degrade).
        """
        with self._lock:
            self._objects.clear()
            self._object_sizes.clear()
            self._objects_nbytes = 0
        removed = 0
        if self._disk and self.root.is_dir():
            for path in self.root.glob("*/*.npz"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # refuses non-empty shards
                    except OSError:
                        pass
        with self._lock:
            self._disk_degraded = False
        return removed

    def info(self) -> dict[str, Any]:
        """Root, key namespace, entry count, total bytes, and counters."""
        n_files = 0
        n_bytes = 0
        if self._disk and self.root.is_dir():
            for path in self.root.glob("*/*.npz"):
                try:
                    n_bytes += path.stat().st_size
                    n_files += 1
                except OSError:
                    pass
        with self._lock:
            return {
                "root": str(self.root),
                "namespace": CACHE_NAMESPACE,
                "disk_enabled": self._disk,
                "disk_degraded": self._disk_degraded,
                "entries": n_files,
                "bytes": n_bytes,
                "memory": {
                    "items": len(self._objects),
                    "bytes": self._objects_nbytes,
                    "max_items": self._memory_items,
                    "max_bytes": self._memory_bytes,
                },
                "stats": self.stats.as_dict(),
            }


_DEFAULT: EngineCache | None = None


def default_cache() -> EngineCache:
    """The process-wide cache used when callers pass ``cache=None``."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = EngineCache()
    return _DEFAULT


def set_default_cache(cache: EngineCache | None) -> EngineCache | None:
    """Swap the process-wide default cache; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = cache
    return previous
