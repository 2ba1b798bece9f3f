"""Spawn-pool picklability and merge-order determinism.

The engine fans work out with ``multiprocessing.get_context("spawn")``
pools (grid sweeps, the exact-expansion shard search).  Spawn pickles the
callable and every argument, and the deterministic-merge contract
(results identical for every ``jobs`` value) requires the submitted task
order to be reproducible.  The checkers:

* **RC401** — lambdas, closures (functions defined inside the submitting
  function), and ``self``-bound methods handed to the shared runtime's
  ``submit_batch`` / ``submit_one`` / ``map_cached`` (in any module), to
  pool submission methods, or as ``Pool(initializer=...)`` (in modules
  importing ``multiprocessing`` or ``concurrent.futures``), fail to pickle
  under spawn — usually only on the platform where CI isn't running.  A
  ``partial(fn, ...)`` is checked through to ``fn``.
* **RC402** — in those same modules, ``for``/comprehension iteration
  directly over a ``set`` (display, call, or comprehension) has no
  deterministic order; when such a loop builds the task list feeding a
  pool, results become run-to-run unstable.  Sort first (``sorted(...)``).
* **RC404** — process-pool construction (``multiprocessing...Pool(...)``,
  ``ProcessPoolExecutor(...)``) anywhere outside the shared persistent
  runtime (:mod:`repro.engine.pool`).  An ad-hoc pool pays cold spawns per
  call and dodges the runtime's kill switch, recovery ladder, and
  telemetry; ship work through ``submit_batch`` / ``submit_one`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import call_name, imports_module
from repro.analysis.base import Checker, Module, register_checker
from repro.analysis.findings import Finding

__all__ = ["SpawnPicklabilityChecker", "SpawnOrderChecker", "AdHocPoolChecker"]

#: Methods that submit a callable (first positional argument) to a pool.
POOL_SUBMIT_METHODS = {
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "apply",
    "apply_async",
    "submit",
}

#: The shared runtime's entry points (:mod:`repro.engine.pool`), called as
#: plain functions or module attributes in any module: their first
#: positional argument is pickled to a spawn worker too.
RUNTIME_SUBMIT_FUNCTIONS = {"submit_batch", "submit_one", "map_cached"}


def _is_parallel_module(module: Module) -> bool:
    return imports_module(module.tree, "multiprocessing") or imports_module(
        module.tree, "concurrent.futures"
    )


def _nested_function_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names of functions defined *inside* ``func`` (closures under spawn)."""
    out: set[str] = set()
    for node in ast.walk(func):
        if node is not func and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
    return out


@register_checker
class SpawnPicklabilityChecker(Checker):
    """RC401: pool-submitted callables must be module-level functions."""

    name = "spawn-pool"
    code = "RC401"
    description = (
        "no lambdas, closures, or self-bound methods submitted to "
        "multiprocessing pools (spawn must pickle them)"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        parallel = _is_parallel_module(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            pool_method = isinstance(node.func, ast.Attribute) and name in POOL_SUBMIT_METHODS
            if node.args and (name in RUNTIME_SUBMIT_FUNCTIONS or (parallel and pool_method)):
                yield from self._check_callable(module, node, node.args[0])
            if parallel:
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        yield from self._check_callable(module, node, kw.value)

    def _check_callable(
        self, module: Module, call: ast.Call, target: ast.expr
    ) -> Iterable[Finding]:
        hint = (
            "submit a module-level function (spawn workers re-import the "
            "module; lambdas, closures, and bound methods do not pickle)"
        )
        if isinstance(target, ast.Call) and call_name(target.func) == "partial":
            if target.args:
                yield from self._check_callable(module, call, target.args[0])
        elif isinstance(target, ast.Lambda):
            yield self.finding(
                module,
                target.lineno,
                "lambda submitted to a process pool",
                fix_hint=hint,
            )
        elif isinstance(target, ast.Attribute) and (
            isinstance(target.value, ast.Name) and target.value.id in ("self", "cls")
        ):
            yield self.finding(
                module,
                target.lineno,
                f"bound method {ast.unparse(target)} submitted to a process pool",
                fix_hint=hint,
            )
        elif isinstance(target, ast.Name):
            for func, nested in self._scopes(module):
                if target.id in nested and any(n is call for n in ast.walk(func)):
                    yield self.finding(
                        module,
                        target.lineno,
                        f"closure {target.id!r} (defined in "
                        f"{getattr(func, 'name', '?')}()) submitted to a "
                        "process pool",
                        fix_hint=hint,
                    )
                    break

    def _scopes(self, module: Module) -> list[tuple[ast.AST, set[str]]]:
        return [
            (f, _nested_function_names(f))
            for f in ast.walk(module.tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register_checker
class SpawnOrderChecker(Checker):
    """RC402: no unordered-set iteration in multiprocessing modules."""

    name = "spawn-order"
    code = "RC402"
    description = (
        "iteration directly over a set in a multiprocessing module is "
        "order-nondeterministic; sort before fanning work out"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not _is_parallel_module(module):
            return
        hint = "iterate sorted(...) so task construction and merges are reproducible"
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                yield self.finding(
                    module,
                    node.lineno,
                    "for-loop iterates directly over an unordered set",
                    fix_hint=hint,
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(
                            module,
                            node.lineno,
                            "comprehension iterates directly over an unordered set",
                            fix_hint=hint,
                        )


#: Constructors that boot a fresh process pool (the runtime's exclusive job).
_POOL_CONSTRUCTORS = {"Pool", "ProcessPoolExecutor"}

#: The one module allowed to own worker processes.
_POOL_RUNTIME_SUFFIX = "repro/engine/pool.py"


@register_checker
class AdHocPoolChecker(Checker):
    """RC404: process pools are constructed only by the shared runtime."""

    name = "adhoc-pool"
    code = "RC404"
    description = (
        "no ad-hoc multiprocessing Pool / ProcessPoolExecutor outside "
        "repro/engine/pool.py; ship work through the shared runtime"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if module.rel.replace("\\", "/").endswith(_POOL_RUNTIME_SUFFIX):
            return
        if not _is_parallel_module(module):
            return
        hint = (
            "route the work through repro.engine.pool (submit_batch / "
            "submit_one): one warm shared pool, kill switch, recovery "
            "ladder, and telemetry come for free"
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            if name in _POOL_CONSTRUCTORS:
                yield self.finding(
                    module,
                    node.lineno,
                    f"ad-hoc process pool {name}(...) outside the shared "
                    "worker-pool runtime",
                    fix_hint=hint,
                )
