"""Lazy package surfaces (PEP 562) for the inits on the pool-worker path.

A package init that calls :func:`attach` keeps its public imports under
``if TYPE_CHECKING:``, so type checkers, linters and ``py.typed`` consumers
see the real names, and keeps ``__all__`` a literal list.  At run time each
public name is imported from the module that block names on first attribute
access, and submodules resolve as attributes too (``repro.engine.pool``).
A process therefore loads only what it calls: a spawned pool worker that
runs an exact scan imports numpy, ``repro.engine.pool``, ``repro.core.exact``
and ``repro.cdag``, never scipy or the bench harness.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def _type_checking_imports(package: str) -> dict[str, tuple[str, str]]:
    """``{public name: (module, attribute)}`` from the init's ``TYPE_CHECKING`` block."""
    import ast
    import pkgutil

    source = pkgutil.get_data(package, "__init__.py") or b""
    exports: dict[str, tuple[str, str]] = {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
                for alias in stmt.names:
                    exports[alias.asname or alias.name] = (stmt.module, alias.name)
    return exports


def attach(package: str) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for the package named ``package``.

    A resolved name is bound in the package's namespace, so later lookups
    are plain attribute reads.
    """
    exports: dict[str, tuple[str, str]] = {}

    def __getattr__(name: str) -> Any:
        if not exports:
            exports.update(_type_checking_imports(package))
        if name in exports:
            module_name, attr = exports[name]
            value = getattr(importlib.import_module(module_name), attr)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        module = sys.modules[package]
        return sorted(set(vars(module)) | set(getattr(module, "__all__", ())))

    return __getattr__, __dir__
