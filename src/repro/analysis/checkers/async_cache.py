"""Async shared-cache locking: no unlocked cache mutation in coroutines.

The serving layer shares one :class:`~repro.engine.cache.EngineCache`
between every async handler in the event loop.  The cache's internal
locks make each *method* atomic, but an async handler typically performs a
compound operation (check in-flight map, read the cache, start a build,
store the result) that interleaves at every ``await`` — the classic
check-then-act race that turns single-flight into N-flight.  The service
therefore guards shared-cache access with an ``asyncio.Lock``; this
checker makes that discipline structural:

* **RC403** — inside an ``async def``, a call to a cache-touching method
  (``get_object``, ``put_object``, ``put_arrays``, ``count_build``,
  ``memoize``, ``merge_stats``, ``clear``) on a receiver
  whose expression mentions a cache must sit lexically inside a ``with`` /
  ``async with`` block whose context manager mentions a lock.  ``memoize``
  owns its locking but blocks on builds, so it belongs in an executor
  rather than on the event loop.

Active only in modules importing ``asyncio`` — synchronous code paths
rely on the cache's internal locks and are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import imports_module, walk_functions
from repro.analysis.base import Checker, Module, register_checker
from repro.analysis.findings import Finding

__all__ = ["AsyncCacheLockChecker"]

#: EngineCache methods that read-modify shared state (stats counters, the
#: LRU order, the in-memory tier) — every one is a mutation under the hood.
CACHE_TOUCHING_METHODS = frozenset(
    {
        "get_object",
        "put_object",
        "put_arrays",
        "count_build",
        "memoize",
        "merge_stats",
        "clear",
    }
)


def _mentions_cache(expr: ast.expr) -> bool:
    """Whether the receiver expression names a cache (``cache``, ``self.cache``,
    ``self._cache``, ``worker_cache``, ...)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "cache" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "cache" in node.attr.lower():
            return True
    return False


def _is_lock_context(item: ast.withitem) -> bool:
    """Whether one ``with``-item's context expression mentions a lock."""
    text = ast.unparse(item.context_expr).lower()
    return "lock" in text


def _protected_calls(func: ast.AsyncFunctionDef) -> set[int]:
    """ids of Call nodes lexically under a lock-holding with/async-with."""
    out: set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_lock_context(item) for item in node.items
        ):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    out.add(id(inner))
    return out


@register_checker
class AsyncCacheLockChecker(Checker):
    """RC403: async handlers touch the shared cache only under a lock."""

    name = "async-cache-lock"
    code = "RC403"
    description = (
        "cache mutation inside an async def must be guarded by a "
        "with/async-with lock block (single-flight discipline)"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not imports_module(module.tree, "asyncio"):
            return
        for func in walk_functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            protected = _protected_calls(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                target = node.func
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr in CACHE_TOUCHING_METHODS
                    and _mentions_cache(target.value)
                ):
                    continue
                if id(node) in protected:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    f"async handler {func.name!r} calls "
                    f"{ast.unparse(target)}() outside a lock block",
                    fix_hint=(
                        "wrap the compound cache operation in `async with "
                        "self._lock:` (or move the blocking cache work to an "
                        "executor thread) so it cannot interleave at an await"
                    ),
                )
