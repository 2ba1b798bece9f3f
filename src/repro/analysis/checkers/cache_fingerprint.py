"""Cache-fingerprint completeness (RC101).

The content-addressed :class:`~repro.engine.cache.EngineCache` is only
sound when *every* result-affecting input of a cached builder is part of
its key.  The code half of the key is a digest of the package source
(:data:`~repro.engine.cache.CACHE_NAMESPACE`), so code edits can never
serve a stale entry; the input half is each builder's own ``cache_key``
call, and that is what this checker verifies statically:

* **RC101** — in any function that calls ``cache_key(...)``, every
  parameter must be referenced inside the key expression, unless it is a
  known result-invariant (``cache``, ``jobs``) or explicitly suppressed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import call_name, names_in, param_names, walk_functions
from repro.analysis.base import Checker, Module, register_checker
from repro.analysis.findings import Finding

__all__ = ["CacheFingerprintChecker"]

#: Parameters that are result-invariant by design: ``cache`` only routes
#: storage, ``jobs`` shards work without changing any result (the exact
#: engine's merge is deterministic; tests pin this).
EXEMPT_PARAMS = frozenset({"cache", "jobs"})


def _expand_through_assignments(
    func: ast.FunctionDef | ast.AsyncFunctionDef, keyed: set[str]
) -> set[str]:
    """Close ``keyed`` over straight-line assignments inside ``func``.

    ``s = get_scheme(scheme); cache_key(..., s, ...)`` keys on ``scheme``
    transitively — a one-level dataflow walk, iterated to fixpoint, keeps
    such derivations from being flagged.
    """
    sources: dict[str, set[str]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            value_names = names_in(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    sources.setdefault(target.id, set()).update(value_names)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                sources.setdefault(node.target.id, set()).update(names_in(node.value))
    closed = set(keyed)
    frontier = list(closed)
    while frontier:
        name = frontier.pop()
        for src in sources.get(name, ()):
            if src not in closed:
                closed.add(src)
                frontier.append(src)
    return closed


@register_checker
class CacheFingerprintChecker(Checker):
    """RC101: parameters of cached builders must flow into ``cache_key``."""

    name = "cache-fingerprint"
    code = "RC101"
    description = (
        "every parameter of a function calling cache_key() must appear in "
        "the key (exempt: cache, jobs)"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for func in walk_functions(module.tree):
            key_calls = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and call_name(node.func) == "cache_key"
            ]
            if not key_calls:
                continue
            keyed: set[str] = set()
            for call in key_calls:
                keyed |= names_in(call)
            keyed = _expand_through_assignments(func, keyed)
            for param in param_names(func):
                if param in EXEMPT_PARAMS or param in keyed:
                    continue
                yield self.finding(
                    module,
                    func.lineno,
                    f"parameter {param!r} of cached builder {func.name!r} "
                    "does not flow into cache_key()",
                    fix_hint=(
                        "pass it into cache_key(), or suppress with "
                        "# repro: ignore[RC101] if it provably cannot affect "
                        "the artifact"
                    ),
                )
