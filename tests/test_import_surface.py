"""The package surface is lazy: a process, or a pool worker, imports only
what it calls.

Each check runs in a fresh interpreter, because the test session itself has
long since imported scipy.  scipy is the marker: nothing on the exact-scan
path, the pool-worker path or the serve boot path needs it, and it is most
of what an eager ``import repro`` used to cost.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = ["repro", "repro.core", "repro.engine"]


def _run(code: str, tmp_path: Path) -> dict:
    """Run ``code`` as a script in a fresh interpreter; it prints one JSON line."""
    script = tmp_path / "probe_script.py"
    script.write_text(textwrap.dedent(code))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(imports: str, tmp_path: Path) -> dict:
    return _run(
        f"""
        import json, sys
        {imports}
        print(json.dumps({{m: m in sys.modules for m in ("numpy", "scipy")}}))
        """,
        tmp_path,
    )


def test_import_repro_loads_neither_numpy_nor_scipy(tmp_path):
    assert _loaded_after("import repro", tmp_path) == {"numpy": False, "scipy": False}


def test_exact_scan_path_loads_no_scipy(tmp_path):
    loaded = _loaded_after("import repro.engine.pool, repro.core.exact, repro.cdag.build", tmp_path)
    assert loaded == {"numpy": True, "scipy": False}


def test_serve_boot_path_loads_no_scipy(tmp_path):
    loaded = _loaded_after("import repro.engine.cli, repro.serve.service", tmp_path)
    assert loaded == {"numpy": True, "scipy": False}


def test_bounds_job_loads_no_scipy(tmp_path):
    # /bounds is closed-form: answering it must not pull in the eigensolver.
    loaded = _loaded_after(
        "from repro.engine.cache import EngineCache; "
        "from repro.serve.jobs import parse_job, run_job_inline; "
        "job = parse_job('bounds', {'n': '4096', 'M': '256', 'p': '64'}); "
        "run_job_inline(job, EngineCache(disk=False))",
        tmp_path,
    )
    assert loaded["scipy"] is False


def test_pool_worker_after_exact_scan_loads_no_scipy(tmp_path):
    out = _run(
        """
        import json, os, sys


        def probe(name):
            return os.getpid(), name in sys.modules


        if __name__ == "__main__":
            from repro.cdag.build import layered_circulant_cdag
            from repro.core.exact import exact_edge_expansion_v2
            from repro.engine import pool

            pool.prewarm(2)
            exact_edge_expansion_v2(layered_circulant_cdag(24), jobs=2)
            stats = pool.pool_stats_snapshot()
            seen = pool.submit_batch(probe, ["scipy"] * 4, workers=2, chunksize=1)
            print(json.dumps({"enabled": pool.pool_enabled(), "stats": stats, "seen": seen,
                              "parent": os.getpid()}))
            pool.shutdown_pool()
        """,
        tmp_path,
    )
    assert not any(loaded for _, loaded in out["seen"])
    if out["enabled"]:
        assert out["stats"]["workers_spawned"] == 2
        assert out["stats"]["tasks_dispatched"] > 0  # the scan itself ran pooled
        assert out["parent"] not in {pid for pid, _ in out["seen"]}


def _type_checking_exports(package: str) -> dict[str, tuple[str, str]]:
    """``{name: (module, attribute)}`` from the init's ``if TYPE_CHECKING:`` block."""
    init = SRC / package.replace(".", "/") / "__init__.py"
    exports = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        exports[alias.asname or alias.name] = (stmt.module, alias.name)
    return exports


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_names_resolve_lazily_to_their_defining_module(package, tmp_path):
    exports = _type_checking_exports(package)
    out = _run(
        f"""
        import importlib, json, sys

        pkg = importlib.import_module({package!r})
        exports = {exports!r}
        eager = [n for n in pkg.__all__ if n in vars(pkg)]
        wrong = []
        for name in pkg.__all__:
            if name in eager:
                continue
            module, attr = exports.get(name, (None, None))
            value = getattr(pkg, name)
            if module is None or value is not getattr(importlib.import_module(module), attr):
                wrong.append(name)
            home = getattr(value, "__module__", None)
            if home in sys.modules and getattr(sys.modules[home], name, value) is not value:
                wrong.append(name)
        print(json.dumps({{"all": pkg.__all__, "eager": eager, "wrong": wrong}}))
        """,
        tmp_path,
    )
    assert out["eager"] == (["__version__"] if package == "repro" else [])
    assert set(exports) == set(out["all"]) - set(out["eager"])
    assert out["wrong"] == []


def test_submodules_resolve_as_attributes_without_scipy(tmp_path):
    out = _run(
        """
        import json, sys
        import repro

        print(json.dumps([type(repro.engine.pool).__name__, repro.core.exact.__name__,
                          hasattr(repro, "no_such_name"), "dec_graph" in dir(repro),
                          "scipy" in sys.modules]))
        """,
        tmp_path,
    )
    assert out == ["module", "repro.core.exact", False, True, False]
