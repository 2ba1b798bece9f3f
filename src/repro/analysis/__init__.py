"""Domain-invariant static analysis for the reproduction (``repro check``).

The repo's nastiest historical bug classes are all *statically detectable*:
result-affecting parameters missing from :mod:`repro.engine.cache`
fingerprints (stale artifacts served under a key that omits an input),
NaN/numpy scalars leaking into strict-JSON artifacts, and drift between
registered algorithms and their declared contracts.  Generic linters cannot see these invariants, so
this package encodes them as an AST-visitor checker framework:

* :class:`~repro.analysis.base.Checker` — the per-file / whole-program
  checker protocol, registered via ``@register_checker``;
* :class:`~repro.analysis.findings.Finding` — one diagnostic with
  ``file:line``, severity, and a fix hint;
* :mod:`repro.analysis.baseline` — a committed baseline file that
  grandfathers pre-existing findings without letting new ones in;
* :mod:`repro.analysis.runner` — file collection, checker dispatch,
  baseline filtering, and the ``--format text|json`` reports behind
  ``python -m repro check``.

The shipped checkers live in :mod:`repro.analysis.checkers`; importing
this package registers all of them.
"""

from __future__ import annotations

from repro.analysis.base import (
    Checker,
    Module,
    Program,
    available_checkers,
    get_checker,
    register_checker,
)
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.findings import Finding, Severity
from repro.analysis.runner import CheckReport, render_findings, run_check

# Importing the subpackage registers every shipped checker.
import repro.analysis.checkers  # noqa: E402,F401  (import-for-effect)

__all__ = [
    "Checker",
    "CheckReport",
    "Finding",
    "Module",
    "Program",
    "Severity",
    "available_checkers",
    "get_checker",
    "load_baseline",
    "register_checker",
    "render_findings",
    "run_check",
    "write_baseline",
]
