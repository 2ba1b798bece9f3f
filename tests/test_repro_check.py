"""The ``repro check`` static-analysis subsystem.

Each shipped checker gets a true-positive and a true-negative fixture
(tiny synthetic trees under ``tmp_path``), the baseline round-trips, the
JSON report schema is pinned, and — the meta-gate — the repo's own
``src/`` tree must come back clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    available_checkers,
    load_baseline,
    run_check,
    write_baseline,
)
from repro.analysis.baseline import split_baselined
from repro.analysis.runner import CHECK_SCHEMA_VERSION
from repro.engine.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def check_snippet(tmp_path: Path, source: str, select: list[str] | None = None):
    """Run checkers over one synthetic module rooted at ``tmp_path``."""
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent(source))
    return run_check(paths=[mod], select=select, root=tmp_path, use_baseline=False)


def codes(report) -> list[str]:
    return [f.code for f in report.findings]


# --------------------------------------------------------------------- #
# RC101 cache-fingerprint                                               #
# --------------------------------------------------------------------- #


class TestCacheFingerprint:
    def test_flags_param_missing_from_key(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def build(scheme, k, policy):
                key = cache_key("estimate", scheme, k=k)
                return key
            """,
            select=["cache-fingerprint"],
        )
        assert codes(report) == ["RC101"]
        assert "policy" in report.findings[0].message

    def test_clean_when_all_params_flow_in(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def build(scheme, k, policy, cache, jobs):
                return cache_key("estimate", scheme, k=k, policy=policy)
            """,
            select=["cache-fingerprint"],
        )
        assert codes(report) == []

    def test_one_hop_derivation_counts_as_keyed(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def build(scheme, k):
                s = get_scheme(scheme)
                return cache_key("profile", s, k=k)
            """,
            select=["cache-fingerprint"],
        )
        assert codes(report) == []

    def test_inline_suppression_silences_the_line(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def build(scheme, seed):  # repro: ignore[RC101]
                return cache_key("thing", scheme)
            """,
            select=["cache-fingerprint"],
        )
        assert codes(report) == []
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# RC201 / RC202 registry contracts                                      #
# --------------------------------------------------------------------- #


class TestRegistryContracts:
    def test_parallel_class_missing_contract_methods(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_parallel
            class Sloppy:
                name = "sloppy"

                def validate(self, n, p, c):
                    return True
            """,
            select=["registry-parallel"],
        )
        assert codes(report) == ["RC201", "RC201"]
        missing = {f.message.split("define ")[1] for f in report.findings}
        assert missing == {"analytic_costs()", "_execute()"}

    def test_parallel_class_with_full_contract_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_parallel
            class Good:
                name = "good"

                def validate(self, n, p, c):
                    return True

                def analytic_costs(self, n, p, c):
                    return {}

                def _execute(self, machine):
                    return None
            """,
            select=["registry-parallel"],
        )
        assert codes(report) == []

    def test_bench_return_without_check_entry(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_bench("w", params={"n": 8})
            def _bench_w(cache, n):
                return {"wall": 1.0}
            """,
            select=["registry-bench"],
        )
        assert codes(report) == ["RC202"]
        assert "'check'" in report.findings[0].message

    def test_bench_full_contract_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_bench("w", params={"n": 8})
            def _bench_w(cache, n):
                return {"wall": 1.0, "check": {"n": n}}
            """,
            select=["registry-bench"],
        )
        assert codes(report) == []

    def test_pure_cost_method_touching_numpy_flagged(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_parallel
            class Leaky:
                name = "leaky"

                def analytic_costs(self, n, p, c):
                    return np.zeros(p).sum()

                def estimate(self, cfg, topology=None):
                    m = Machine(cfg.p)
                    return m

                def _execute(self, machine):
                    return np.zeros(4)
            """,
            select=["registry-pure-cost"],
        )
        assert codes(report) == ["RC203", "RC203"]
        names = {f.message.split("references ")[1].split(";")[0] for f in report.findings}
        assert names == {"'np'", "'Machine'"}

    def test_pure_cost_methods_closed_form_are_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            @register_parallel
            class Analytic:
                name = "analytic"

                def validate(self, n, p, c):
                    return True

                def analytic_costs(self, n, p, c):
                    return 4 * n * n / p**0.5

                def analytic_flops(self, n, p, c):
                    return 2.0 * n**3 / p

                def _execute(self, machine):
                    # arrays and the simulator are sanctioned here
                    return np.zeros((4, 4)) if Machine else None
            """,
            select=["registry-pure-cost"],
        )
        assert codes(report) == []

    def test_pure_cost_checker_ignores_unregistered_classes(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            class Helper:
                def estimate(self, cfg):
                    return np.zeros(3)
            """,
            select=["registry-pure-cost"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC301 strict-json                                                     #
# --------------------------------------------------------------------- #


class TestStrictJson:
    def test_raw_dump_of_computed_payload(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import json

            def emit(payload):
                return json.dumps(payload, indent=2)
            """,
            select=["strict-json"],
        )
        assert sorted(codes(report)) == ["RC301", "RC301"]  # unwrapped + no allow_nan

    def test_jsonable_wrapped_with_allow_nan_false_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import json

            from repro.util.jsonutil import jsonable

            def emit(payload):
                return json.dumps(jsonable(payload), indent=2, allow_nan=False)
            """,
            select=["strict-json"],
        )
        assert codes(report) == []

    def test_name_assigned_from_jsonable_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import json

            from repro.util.jsonutil import jsonable

            def emit(payload):
                doc = jsonable(payload)
                return json.dumps(doc, allow_nan=False)
            """,
            select=["strict-json"],
        )
        assert codes(report) == []

    def test_pure_literal_payload_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import json

            def emit():
                return json.dumps({"ok": True, "n": 3})
            """,
            select=["strict-json"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC401 / RC402 spawn-pool                                              #
# --------------------------------------------------------------------- #


class TestSpawnPool:
    def test_lambda_submitted_to_pool(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def run(tasks):
                with mp.Pool(2) as pool:
                    return pool.map(lambda t: t * 2, tasks)
            """,
            select=["spawn-pool"],
        )
        assert codes(report) == ["RC401"]
        assert "lambda" in report.findings[0].message

    def test_closure_submitted_to_pool(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def run(tasks):
                def work(t):
                    return t * 2

                with mp.Pool(2) as pool:
                    return pool.map(work, tasks)
            """,
            select=["spawn-pool"],
        )
        assert codes(report) == ["RC401"]
        assert "closure" in report.findings[0].message

    def test_bound_method_and_lambda_initializer(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            class Runner:
                def work(self, t):
                    return t

                def run(self, tasks):
                    pool = mp.Pool(2, initializer=lambda: None)
                    return pool.map(self.work, tasks)
            """,
            select=["spawn-pool"],
        )
        assert sorted(codes(report)) == ["RC401", "RC401"]

    def test_module_level_worker_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def _worker(t):
                return t * 2

            def run(tasks):
                with mp.Pool(2) as pool:
                    return pool.map(_worker, tasks)
            """,
            select=["spawn-pool"],
        )
        assert codes(report) == []

    def test_runtime_submissions_are_checked_in_any_module(self, tmp_path):
        # no multiprocessing import: the shared runtime's entry points are
        # what the repo actually calls, and they pickle their callable too
        report = check_snippet(
            tmp_path,
            """
            from repro.engine import pool as pool_runtime
            from repro.engine.pool import submit_one

            def run(tasks):
                def work(t):
                    return t * 2

                pool_runtime.submit_batch(lambda t: t, tasks, workers=2)
                return submit_one(work, tasks[0])
            """,
            select=["spawn-pool"],
        )
        assert codes(report) == ["RC401", "RC401"]
        messages = sorted(f.message for f in report.findings)
        assert "closure" in messages[0] and "lambda" in messages[1]

    def test_map_cached_partial_is_checked_through(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.engine.pool import map_cached

            def evaluate(item, cache, scale):
                return item * scale

            def run(items, cache):
                ok, _ = map_cached(partial(evaluate, scale=2), items, cache, 2)
                bad, _ = map_cached(partial(lambda i, cache: i), items, cache, 2)
                return ok + bad
            """,
            select=["spawn-pool"],
        )
        assert codes(report) == ["RC401"]
        assert report.findings[0].line == 11

    def test_set_iteration_in_parallel_module(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def build_tasks(items):
                out = []
                for item in set(items):
                    out.append(item)
                return [x for x in {1, 2, 3}]
            """,
            select=["spawn-order"],
        )
        assert sorted(codes(report)) == ["RC402", "RC402"]

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def build_tasks(items):
                return [x for x in sorted(set(items))]
            """,
            select=["spawn-order"],
        )
        assert codes(report) == []

    def test_set_iteration_without_multiprocessing_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def build_tasks(items):
                return [x for x in set(items)]
            """,
            select=["spawn-order"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC404 adhoc-pool                                                      #
# --------------------------------------------------------------------- #


class TestAdHocPool:
    def test_mp_pool_is_flagged(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def _worker(t):
                return t

            def run(tasks):
                with mp.get_context("spawn").Pool(2) as pool:
                    return pool.map(_worker, tasks)
            """,
            select=["adhoc-pool"],
        )
        assert codes(report) == ["RC404"]
        assert "Pool" in report.findings[0].message

    def test_process_pool_executor_is_flagged(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import concurrent.futures

            def _worker(t):
                return t

            def run(tasks):
                with concurrent.futures.ProcessPoolExecutor(2) as ex:
                    return list(ex.map(_worker, tasks))
            """,
            select=["adhoc-pool"],
        )
        assert codes(report) == ["RC404"]

    def test_thread_pool_executor_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import concurrent.futures

            def run(tasks):
                with concurrent.futures.ThreadPoolExecutor(2) as ex:
                    return list(ex.map(str, tasks))
            """,
            select=["adhoc-pool"],
        )
        assert codes(report) == []

    def test_ignore_comment_suppresses(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import multiprocessing as mp

            def _worker(t):
                return t

            def run(tasks):
                pool = mp.Pool(2)  # repro: ignore[RC404]
                return pool.map(_worker, tasks)
            """,
            select=["adhoc-pool"],
        )
        assert codes(report) == []

    def test_pool_runtime_module_is_exempt(self, tmp_path):
        mod = tmp_path / "repro" / "engine" / "pool.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            textwrap.dedent(
                """
                import multiprocessing as mp

                def boot():
                    return mp.Pool(2)
                """
            )
        )
        report = run_check(
            paths=[mod], select=["adhoc-pool"], root=tmp_path, use_baseline=False
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC501 bitset-dtype                                                    #
# --------------------------------------------------------------------- #


class TestBitsetDtype:
    def test_uint64_mixed_with_signed_array(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                bits = np.zeros(n, dtype=np.uint64)
                idx = np.arange(n, dtype=np.int64)
                return bits + idx
            """,
            select=["bitset-dtype"],
        )
        assert codes(report) == ["RC501"]

    def test_augassign_mixing_is_flagged(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(g):
                bits = g.adjacency_bits
                shift = np.arange(4, dtype="int64")
                bits ^= shift
                return bits
            """,
            select=["bitset-dtype"],
        )
        assert codes(report) == ["RC501"]

    def test_all_uint64_pipeline_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(g, n):
                bits = g.adjacency_bits
                mask = np.uint64(1) << np.arange(n, dtype=np.uint64)
                widened = np.arange(n).astype(np.uint64)
                return (bits & mask) | widened
            """,
            select=["bitset-dtype"],
        )
        assert codes(report) == []

    def test_int_literals_are_neutral(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                bits = np.zeros(n, dtype=np.uint64)
                return bits >> 3
            """,
            select=["bitset-dtype"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC403 async-cache-lock                                                #
# --------------------------------------------------------------------- #


class TestAsyncCacheLock:
    def test_unlocked_cache_call_in_coroutine(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import asyncio

            class Service:
                async def handle(self, key):
                    cached = self.cache.get_object(key)
                    if cached is None:
                        self.cache.put_object(key, {"v": 1})
                    return cached

                async def build(self, key):
                    return self.cache.memoize(key, lambda: {"v": 1})
            """,
            select=["async-cache-lock"],
        )
        assert sorted(codes(report)) == ["RC403", "RC403", "RC403"]
        assert any("memoize" in f.message for f in report.findings)

    def test_locked_cache_call_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import asyncio

            class Service:
                async def handle(self, key):
                    async with self._lock:
                        cached = self.cache.get_object(key)
                        if cached is None:
                            self.cache.put_object(key, {"v": 1})
                    return cached

                async def build(self, key):
                    with self.cache.lock(key):
                        return self.cache.memoize(key, lambda: {"v": 1})
            """,
            select=["async-cache-lock"],
        )
        assert codes(report) == []

    def test_per_key_sync_lock_also_counts(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import asyncio

            class Service:
                async def handle(self, key):
                    with self.cache.lock(key):
                        return self.cache.get_object(key)
            """,
            select=["async-cache-lock"],
        )
        assert codes(report) == []

    def test_sync_function_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import asyncio

            def warm(cache, key, obj):
                cache.put_object(key, obj)
            """,
            select=["async-cache-lock"],
        )
        assert codes(report) == []

    def test_module_without_asyncio_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            class Service:
                async def handle(self, key):
                    return self.cache.get_object(key)
            """,
            select=["async-cache-lock"],
        )
        assert codes(report) == []

    def test_non_cache_receiver_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import asyncio

            class Service:
                async def handle(self, key):
                    return self.registry.get_object(key)
            """,
            select=["async-cache-lock"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# RC601 broad-except                                                    #
# --------------------------------------------------------------------- #


class TestBroadExcept:
    @pytest.mark.parametrize(
        "clause",
        [
            "except Exception:",
            "except BaseException:",
            "except:",
            "except (ValueError, Exception):",
        ],
    )
    def test_broad_handlers_are_flagged(self, tmp_path, clause):
        report = check_snippet(
            tmp_path,
            f"""
            def f():
                try:
                    return 1
                {clause}
                    return 0
            """,
            select=["broad-except"],
        )
        assert codes(report) == ["RC601"]

    def test_narrow_handler_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except (ValueError, OSError):
                    return 0
            """,
            select=["broad-except"],
        )
        assert codes(report) == []


# --------------------------------------------------------------------- #
# framework: parse failures, baseline, schema, CLI, self-check          #
# --------------------------------------------------------------------- #


class TestFramework:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        report = check_snippet(tmp_path, "def broken(:\n")
        assert codes(report) == ["RC001"]
        assert not report.ok

    def test_baseline_round_trip(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def f():\n    try:\n        pass\n    except Exception:\n        pass\n")
        report = run_check(paths=[mod], root=tmp_path, use_baseline=False)
        assert len(report.findings) == 1

        baseline_path = tmp_path / "repro_check_baseline.json"
        write_baseline(report.findings, baseline_path)
        identities = load_baseline(baseline_path)
        assert identities == {f.identity() for f in report.findings}
        new, old = split_baselined(report.findings, identities)
        assert new == [] and len(old) == 1

        rerun = run_check(paths=[mod], root=tmp_path)  # picks the file up by name
        assert rerun.findings == [] and len(rerun.baselined) == 1 and rerun.ok

    def test_unknown_baseline_schema_is_a_hard_error(self, tmp_path):
        path = tmp_path / "repro_check_baseline.json"
        path.write_text(json.dumps({"schema_version": 99, "findings": []}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(path)

    def test_json_report_schema_is_stable(self, tmp_path):
        report = check_snippet(tmp_path, "x = 1\n")
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == CHECK_SCHEMA_VERSION == 1
        assert set(doc) == {
            "schema_version",
            "checkers",
            "files",
            "ok",
            "findings",
            "baselined",
            "suppressed",
        }
        assert doc["ok"] is True and doc["files"] == 1

    def test_finding_dict_schema_is_stable(self, tmp_path):
        report = check_snippet(tmp_path, "def broken(:\n")
        (finding,) = json.loads(report.to_json())["findings"]
        assert set(finding) == {
            "path",
            "line",
            "code",
            "checker",
            "severity",
            "message",
            "fix_hint",
        }

    def test_select_accepts_codes_via_cli(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("import json\n\ndef f(p):\n    return json.dumps(p)\n")
        rc = cli_main(
            ["check", "--paths", str(mod), "--select", "RC301", "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert {f["code"] for f in doc["findings"]} == {"RC301"}

    def test_cli_exit_zero_on_clean_tree(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        rc = cli_main(["check", "--paths", str(mod)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_all_eleven_checkers_are_registered(self):
        names = available_checkers()
        assert names == sorted(names)
        assert set(names) == {
            "adhoc-pool",
            "async-cache-lock",
            "bitset-dtype",
            "broad-except",
            "cache-fingerprint",
            "registry-bench",
            "registry-parallel",
            "registry-pure-cost",
            "spawn-order",
            "spawn-pool",
            "strict-json",
        }

    def test_repo_src_tree_is_clean(self):
        """The meta-gate: the repo's own sources satisfy every invariant."""
        report = run_check(root=REPO_ROOT)
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert report.ok
