"""Registry contracts: parallel algorithms and benchmark workloads.

Table I of the paper is an experimental claim about declared analytic
costs; the bench gate is a claim about pinned science outputs.  Both rest
on registry entries actually *declaring* their contracts:

* **RC201** — every ``@register_parallel`` class must define its validity
  predicate (``validate``), its analytic α-β word/message/memory formulas
  (``analytic_costs``), its superstep kernel (``_execute``), and a
  registry ``name``.  A registered algorithm without declared costs
  silently drops out of the bound-attainment comparison.
* **RC202** — every return of a ``@register_bench`` workload must be a
  dict literal carrying the scalar ``"check"`` payload the CI comparison
  gate pins.
* **RC203** — the planner-facing cost surface (``estimate`` /
  ``analytic_costs`` / ``analytic_flops`` / ``validate`` /
  ``plan_configs``) of a registered algorithm must stay *pure*: no numpy
  arrays and no ``Machine`` simulation.  The auto-scheduler calls these
  methods thousands of times per search; an array allocation or a
  simulator hop hidden in one turns an O(1) analytic probe into an
  accidental execution.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import decorator_call, decorator_name
from repro.analysis.base import Checker, Module, register_checker
from repro.analysis.findings import Finding

__all__ = [
    "ParallelContractChecker",
    "BenchContractChecker",
    "PureCostChecker",
]

#: Methods a registered parallel algorithm must define in its own body.
REQUIRED_PARALLEL_METHODS = ("validate", "analytic_costs", "_execute")

#: Methods the planner treats as pure analytics: they may not touch numpy
#: or the ``Machine`` simulator.  (``_execute`` is the *only* sanctioned
#: home for both.)
PURE_COST_METHODS = (
    "estimate",
    "analytic_costs",
    "analytic_flops",
    "validate",
    "plan_configs",
)

#: Names whose appearance inside a pure-cost method marks an impurity.
_IMPURE_NAMES = frozenset({"np", "numpy", "Machine"})


def _class_method_names(node: ast.ClassDef) -> set[str]:
    return {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_attr_names(node: ast.ClassDef) -> set[str]:
    out: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            out |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.add(stmt.target.id)
    return out


@register_checker
class ParallelContractChecker(Checker):
    """RC201: ``@register_parallel`` classes declare their full contract."""

    name = "registry-parallel"
    code = "RC201"
    description = (
        "@register_parallel classes must define validate, analytic_costs, "
        "_execute, and a registry name"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                decorator_name(d) == "register_parallel" for d in node.decorator_list
            ):
                continue
            methods = _class_method_names(node)
            for required in REQUIRED_PARALLEL_METHODS:
                if required not in methods:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"registered parallel algorithm {node.name!r} does not "
                        f"define {required}()",
                        fix_hint=(
                            "declare the contract explicitly; inheriting an "
                            "abstract stub hides missing analytic formulas"
                        ),
                    )
            if "name" not in _class_attr_names(node):
                yield self.finding(
                    module,
                    node.lineno,
                    f"registered parallel algorithm {node.name!r} does not set "
                    "a registry 'name'",
                    fix_hint="set the class attribute name = '<registry key>'",
                )


def _dict_literal_keys(node: ast.expr) -> set[str] | None:
    """String keys of a dict display, or None when not a plain dict literal."""
    if not isinstance(node, ast.Dict):
        return None
    keys: set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        elif key is None:
            return None  # **spread: membership is undecidable
    return keys


def _direct_returns(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Return]:
    """Return statements of ``func`` itself, skipping nested functions."""
    out: list[ast.Return] = []

    def visit(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Return):
                out.append(stmt)
            for fieldname in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(stmt, fieldname, None)
                if isinstance(block, list):
                    for item in block:
                        if isinstance(item, ast.ExceptHandler):
                            visit(item.body)
                        else:
                            visit([item])

    visit(func.body)
    return out


@register_checker
class BenchContractChecker(Checker):
    """RC202: ``@register_bench`` workloads return a pinned ``check`` payload."""

    name = "registry-bench"
    code = "RC202"
    description = "@register_bench workloads must return a dict literal carrying a 'check' entry"

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if decorator_call(node, "register_bench") is None:
                continue
            for ret in _direct_returns(node):
                if ret.value is None:
                    yield self.finding(
                        module,
                        ret.lineno,
                        f"bench workload {node.name!r} returns nothing; the "
                        "harness requires a payload dict with a 'check' entry",
                        fix_hint="return {'check': {...}} with the pinned scalars",
                    )
                    continue
                keys = _dict_literal_keys(ret.value)
                if keys is None:
                    yield self.finding(
                        module,
                        ret.lineno,
                        f"bench workload {node.name!r} returns a non-literal "
                        "payload; the 'check' contract cannot be verified "
                        "statically",
                        fix_hint=(
                            "return a dict literal with an explicit 'check' key "
                            "so the science gate is visible in review"
                        ),
                    )
                elif "check" not in keys:
                    yield self.finding(
                        module,
                        ret.lineno,
                        f"bench workload {node.name!r} returns a payload without "
                        "a 'check' entry",
                        fix_hint=(
                            "add 'check': {...} with the scalar science outputs "
                            "the --compare gate must pin"
                        ),
                    )


def _impure_references(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[int, str]]:
    """(lineno, name) for each numpy/Machine reference in ``func``'s body."""
    out: list[tuple[int, str]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in _IMPURE_NAMES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "Machine":
            out.append((node.lineno, "Machine"))
    return out


@register_checker
class PureCostChecker(Checker):
    """RC203: planner-facing cost methods stay numpy- and Machine-free."""

    name = "registry-pure-cost"
    code = "RC203"
    description = (
        "pure-cost methods (estimate/analytic_costs/analytic_flops/"
        "validate/plan_configs) of @register_parallel classes may not "
        "reference numpy or Machine"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                decorator_name(d) == "register_parallel" for d in node.decorator_list
            ):
                continue
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name not in PURE_COST_METHODS:
                    continue
                for lineno, name in _impure_references(stmt):
                    yield self.finding(
                        module,
                        lineno,
                        f"pure-cost method {node.name}.{stmt.name}() references "
                        f"{name!r}; the planner requires it to be analytic",
                        fix_hint=(
                            "move array work and Machine simulation into "
                            "_execute(); cost methods must be closed-form"
                        ),
                    )
