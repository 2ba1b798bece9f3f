"""The persistent shared worker-pool runtime (``repro.engine.pool``).

Lifecycle (one warm pool per process, reused across every call site),
failure semantics (one respawn, then permanent serial fallback), the
``REPRO_POOL`` kill switch, zero-copy transport, and the determinism
contract: identical results for every worker count — the property the
grid's row order and the exact engine's ``(h, mask)`` merge rely on.

Pool state is process-global, so every test that touches lifecycle or
counters goes through the ``fresh_pool`` fixture: boot from a clean
slate, restore the fallback state afterwards.  The counters are monotone,
so each test reads increments since a ``pool_stats_snapshot()``: the
fixture's own value, or one it takes mid-test.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.cdag.build import layered_circulant_cdag
from repro.cdag.graph import CDAG
from repro.core.exact import exact_edge_expansion_v2
from repro.engine import pool as pool_runtime
from repro.engine.cache import EngineCache
from repro.engine.grid import GridSpec, run_grid
from repro.serve.jobs import parse_job, run_job_pooled

# --------------------------------------------------------------------- #
# module-level task functions (spawn must pickle them; RC401 contract)   #
# --------------------------------------------------------------------- #


def _square(x: int) -> int:
    return x * x


def _dot(msg: tuple[np.ndarray, np.ndarray]) -> float:
    a, b = msg
    return float(a @ b)


def _arange(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.uint64)


def _crash_in_worker(x: int) -> tuple[str, int]:
    """Kill the hosting *worker*; inert when run inline in the parent."""
    if pool_runtime.in_worker():
        os._exit(13)
    return ("inline", x)


def _random_graph(n: int, seed: int, p: float = 0.35) -> CDAG:
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                src.append(i)
                dst.append(j)
    return CDAG(n, np.array(src), np.array(dst), np.zeros(n, dtype=np.int8))


def _since(before: dict[str, int]) -> dict[str, int]:
    """Pool counter increments since a ``pool_stats_snapshot()``."""
    return {k: v - before[k] for k, v in pool_runtime.pool_stats_snapshot().items()}


@pytest.fixture
def fresh_pool(monkeypatch):
    """A clean, enabled pool slate; yields the counters' snapshot at the
    start and restores fallback state afterwards.

    These tests exercise the pool runtime itself, so the kill switch is
    forced open regardless of the environment (the ``REPRO_POOL=0`` CI leg
    proves the *call sites* degrade gracefully; the kill-switch test below
    re-closes it explicitly).
    """
    monkeypatch.setenv(pool_runtime.POOL_ENV, "1")
    pool_runtime.shutdown_pool()
    saved_reason = pool_runtime._FALLBACK_REASON
    pool_runtime._FALLBACK_REASON = None
    yield pool_runtime.pool_stats_snapshot()
    pool_runtime.shutdown_pool()
    pool_runtime._FALLBACK_REASON = saved_reason


# --------------------------------------------------------------------- #
# transport and scheduling                                               #
# --------------------------------------------------------------------- #


class TestSubmitBatch:
    def test_results_in_task_order(self, fresh_pool):
        tasks = list(range(37))
        assert pool_runtime.submit_batch(_square, tasks, workers=3) == [
            x * x for x in tasks
        ]

    def test_explicit_chunksize_same_results(self, fresh_pool):
        tasks = list(range(23))
        expected = [x * x for x in tasks]
        for chunksize in (1, 4, 23, 100):
            got = pool_runtime.submit_batch(
                _square, tasks, workers=2, chunksize=chunksize
            )
            assert got == expected

    def test_empty_batch(self, fresh_pool):
        assert pool_runtime.submit_batch(_square, [], workers=4) == []

    def test_ndarrays_ship_both_ways(self, fresh_pool):
        # protocol-5 out-of-band buffers: arrays in the task message and in
        # the result both round-trip bit-exactly.
        msgs = [
            (np.arange(64, dtype=np.float64), np.ones(64, dtype=np.float64))
            for _ in range(4)
        ]
        assert pool_runtime.submit_batch(_dot, msgs, workers=2) == [2016.0] * 4
        out = pool_runtime.submit_batch(_arange, [5, 9], workers=2)
        assert [a.tolist() for a in out] == [list(range(5)), list(range(9))]

    def test_workers_clamped_to_task_count(self, fresh_pool):
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, [1, 2, 3], workers=16)
        delta = _since(before)
        assert 0 < delta["workers_spawned"] <= 3

    def test_env_cap_limits_pool_size(self, fresh_pool, monkeypatch):
        monkeypatch.setenv(pool_runtime.POOL_JOBS_ENV, "2")
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, list(range(6)), workers=4)
        delta = _since(before)
        assert delta["workers_spawned"] <= 2

    def test_task_exception_propagates(self, fresh_pool):
        with pytest.raises(ZeroDivisionError):
            pool_runtime.submit_batch(_reciprocal, [1, 0, 2], workers=2)
        # the pool survived the task error: next batch still runs pooled
        before = pool_runtime.pool_stats_snapshot()
        assert pool_runtime.submit_batch(_square, [4, 5], workers=2) == [16, 25]
        delta = _since(before)
        assert delta["serial_tasks"] == 0


def _reciprocal(x: int) -> float:
    return 1.0 / x


# --------------------------------------------------------------------- #
# lifecycle: warm reuse, kill switch, recovery ladder                    #
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_warm_reuse_across_grid_exact_and_serve(self, fresh_pool):
        spec = GridSpec(
            schemes=("strassen",), ks=(1,), memories=(48, 192), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            run_grid(spec, workers=2, cache=EngineCache(root + "/grid"))
            after_grid = pool_runtime.pool_stats_snapshot()
            grid = _since(fresh_pool)
            assert grid["pool_starts"] == 1
            assert grid["workers_spawned"] == 2

            # the exact scan and a pooled serve job ride the same workers
            exact_edge_expansion_v2(layered_circulant_cdag(18), jobs=2)
            job = parse_job("expansion", {"scheme": "strassen", "k": "1"})
            run_job_pooled(job, root + "/serve")

            delta = _since(after_grid)
            assert delta["pool_starts"] == 0
            assert delta["workers_spawned"] == 0  # zero new processes
            assert delta["warm_dispatches"] >= 2
            assert pool_runtime.pool_info()["live_workers"] == 2

    def test_kill_switch_runs_serial(self, fresh_pool, monkeypatch):
        monkeypatch.setenv(pool_runtime.POOL_ENV, "0")
        spec = GridSpec(
            schemes=("strassen",), ks=(1, 2), memories=(48,), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            report = run_grid(spec, workers=2, cache=EngineCache(root))
        assert report.workers == 2  # the clamped request is still reported
        info = pool_runtime.pool_info()
        assert not info["enabled"]
        assert info["live_workers"] == 0
        delta = _since(fresh_pool)
        assert delta["workers_spawned"] == 0
        assert delta["serial_tasks"] == 2

    def test_broken_pool_respawns_once_then_goes_serial(self, fresh_pool):
        # Every dispatch kills its worker: the first breakage is answered
        # with one respawn, the second drops the runtime into permanent
        # serial fallback — where the same tasks run inline and succeed.
        out = pool_runtime.submit_batch(_crash_in_worker, [1, 2], workers=2)
        assert out == [("inline", 1), ("inline", 2)]
        info = pool_runtime.pool_info()
        assert _since(fresh_pool)["respawns"] == 1
        assert info["serial_fallback"] is not None
        assert "respawn" in info["serial_fallback"]
        assert not info["enabled"]

        # fallback is sticky: later batches run inline without touching
        # worker processes at all
        before = pool_runtime.pool_stats_snapshot()
        assert pool_runtime.submit_batch(_square, [3, 4], workers=2) == [9, 16]
        delta = _since(before)
        assert delta["workers_spawned"] == 0
        assert delta["serial_tasks"] == 2

    def test_shutdown_is_lifecycle_only(self, fresh_pool):
        pool_runtime.submit_batch(_square, [1, 2], workers=2)
        assert pool_runtime.pool_info()["live_workers"] == 2
        pool_runtime.shutdown_pool()
        assert pool_runtime.pool_info()["live_workers"] == 0
        assert pool_runtime.serial_fallback_reason() is None
        # next batch simply boots a fresh pool
        assert pool_runtime.submit_batch(_square, [3], workers=1) == [9]

    def test_prewarm_spawns_ahead_of_first_batch(self, fresh_pool):
        assert pool_runtime.prewarm(2) == 2
        before = pool_runtime.pool_stats_snapshot()
        pool_runtime.submit_batch(_square, [1, 2, 3, 4], workers=2)
        delta = _since(before)
        assert delta["workers_spawned"] == 0
        assert delta["warm_dispatches"] == 1


# --------------------------------------------------------------------- #
# determinism: identical results for every worker count                  #
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_exact_jobs_bit_identical_on_circulant(self, fresh_pool):
        g = layered_circulant_cdag(18)
        h1, m1 = exact_edge_expansion_v2(g, jobs=1)
        for jobs in (2, 3):
            h, m = exact_edge_expansion_v2(g, jobs=jobs)
            assert h == h1
            assert np.array_equal(m, m1)

    def test_exact_jobs_bit_identical_on_random_graphs(self, fresh_pool):
        for seed in (3, 11):
            g = _random_graph(18, seed)
            h1, m1 = exact_edge_expansion_v2(g, jobs=1)
            for jobs in (2, 3):
                h, m = exact_edge_expansion_v2(g, jobs=jobs)
                assert h == h1
                assert np.array_equal(m, m1)

    def test_grid_rows_identical_for_every_worker_count(self, fresh_pool):
        spec = GridSpec(
            schemes=("strassen",), ks=(1, 2), memories=(48, 192), policies=("auto",)
        )
        with tempfile.TemporaryDirectory() as root:
            serial = run_grid(spec, workers=1, cache=EngineCache(root + "/w1"))
            for w in (2, 3):
                par = run_grid(spec, workers=w, cache=EngineCache(root + f"/w{w}"))
                assert par.rows == serial.rows
