"""Concurrency and correctness regressions for the hardened EngineCache.

Covers the PR-7 bugfix trio (NumPy-2.x key fragmentation, per-call disk
degradation, honest miss/clear accounting) plus the contended paths the
serving layer leans on: multi-process same-key writers racing
``os.replace``, thread-level single-flight deduplication, and the
byte-capped LRU's eviction order.  The source-digest key namespace is
pinned too: any source edit moves it, so older code's entries are never
served.
"""

from __future__ import annotations

import multiprocessing
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.engine.cache as cache_mod
from repro.engine.builders import cached_estimate
from repro.engine.cache import (
    CACHE_NAMESPACE,
    CacheStats,
    EngineCache,
    cache_key,
    source_digest,
)


class TestKeyNormalization:
    """NumPy-2.x scalar reprs must not fragment the keyspace."""

    def test_numpy_float_shares_key_with_python_float(self):
        assert cache_key("t", None, x=np.float64(1.5)) == cache_key("t", None, x=1.5)

    def test_numpy_int_shares_key_with_python_int(self):
        assert cache_key("t", None, k=np.int64(4)) == cache_key("t", None, k=4)

    def test_numpy_bool_shares_key_with_python_bool(self):
        assert cache_key("t", None, flag=np.bool_(True)) == cache_key("t", None, flag=True)

    def test_bool_and_int_stay_distinct(self):
        # plain bool is an int subclass; normalization must not collapse
        # True into 1 (their reprs differ, and so must their keys)
        assert cache_key("t", None, flag=True) != cache_key("t", None, flag=1)

    def test_numpy_str_shares_key_with_python_str(self):
        assert cache_key("t", None, s=np.str_("auto")) == cache_key("t", None, s="auto")

    def test_normalization_recurses_through_containers(self):
        mixed = (np.int64(1), [np.float64(2.0), np.str_("x")])
        plain = (1, [2.0, "x"])
        assert cache_key("t", None, v=mixed) == cache_key("t", None, v=plain)

    def test_job_params_share_key_with_numpy_equivalents(self):
        # the plain-scalar fast path and the isinstance chain agree
        plain = (("cs", (1, 2, 4)), ("k", 4), ("omega0", 2.5), ("scheme", "strassen"))
        typed = (
            ("cs", (np.int64(1), np.int32(2), np.int64(4))),
            ("k", np.int64(4)),
            ("omega0", np.float64(2.5)),
            ("scheme", np.str_("strassen")),
        )
        assert cache_key("serve:plan", None, params=plain) == cache_key(
            "serve:plan", None, params=typed
        )

    def test_distinct_values_still_miss_each_other(self):
        assert cache_key("t", None, x=np.float64(1.5)) != cache_key("t", None, x=2.5)


class TestDiskDegradation:
    """A transient OSError costs one store, not the process's lifetime."""

    def test_failed_write_is_per_call_not_permanent(self, tmp_path, monkeypatch):
        cache = EngineCache(tmp_path / "c")
        key = cache_key("t", None, n=1)
        arrays = {"a": np.arange(4)}

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", boom)
        cache.put_arrays(key, arrays)
        assert cache.stats.disk_errors == 1
        assert cache.disk_degraded
        assert cache.disk_enabled  # the tier is degraded, never disabled

        monkeypatch.undo()
        cache.put_arrays(key, arrays)  # the very next store retries the disk
        assert cache.stats.disk_errors == 1
        assert not cache.disk_degraded
        loaded = cache.get_arrays(key)
        assert loaded is not None and np.array_equal(loaded["a"], np.arange(4))

    def test_retry_within_one_call_recovers(self, tmp_path, monkeypatch):
        import os as os_mod

        cache = EngineCache(tmp_path / "c")
        real_replace = os_mod.replace
        failures = iter([True, False])

        def flaky(src, dst):
            if next(failures):
                raise OSError("transient")
            return real_replace(src, dst)

        monkeypatch.setattr("os.replace", flaky)
        key = cache_key("t", None, n=2)
        cache.put_arrays(key, {"a": np.ones(3)})
        assert cache.stats.disk_errors == 0  # second attempt succeeded
        assert not cache.disk_degraded
        monkeypatch.undo()
        assert cache.get_arrays(key) is not None

    def test_degraded_state_surfaces_in_info(self, tmp_path, monkeypatch):
        cache = EngineCache(tmp_path / "c")
        assert cache.info()["disk_degraded"] is False
        monkeypatch.setattr("os.replace", lambda s, d: (_ for _ in ()).throw(OSError()))
        cache.put_arrays(cache_key("t", None, n=3), {"a": np.ones(1)})
        assert cache.info()["disk_degraded"] is True
        assert cache.info()["stats"]["disk_errors"] == 1


class TestHonestAccounting:
    """get_object counts misses; clear() works even after degradation."""

    def test_get_object_counts_misses(self):
        cache = EngineCache(disk=False)
        assert cache.get_object("nope") is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put_object("k", {"v": 1})
        assert cache.get_object("k") == {"v": 1}
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_memory_only_get_arrays_counts_a_miss(self):
        cache = EngineCache(disk=False)
        assert cache.get_arrays("anything") is None
        assert cache.stats.misses == 1

    def test_clear_is_honest_after_degradation(self, tmp_path, monkeypatch):
        cache = EngineCache(tmp_path / "c")
        k1 = cache_key("t", None, n=1)
        k2 = cache_key("t", None, n=2)
        cache.put_arrays(k1, {"a": np.ones(2)})
        cache.put_arrays(k2, {"a": np.ones(2)})
        # degrade: a later write fails, but the two entries above exist
        monkeypatch.setattr("os.replace", lambda s, d: (_ for _ in ()).throw(OSError()))
        cache.put_arrays(cache_key("t", None, n=3), {"a": np.ones(2)})
        assert cache.disk_degraded
        monkeypatch.undo()

        removed = cache.clear()
        assert removed == 2  # degradation never hides real entries
        assert not cache.disk_degraded  # nothing left to be degraded about
        assert not list(cache.root.glob("*/*.npz"))
        # emptied shard directories are pruned, not left as litter
        assert not [p for p in cache.root.iterdir() if p.is_dir()]

    def test_clear_skips_filesystem_when_memory_only(self, tmp_path):
        cache = EngineCache(tmp_path / "never-created", disk=False)
        cache.put_object("k", {"v": 1})
        assert cache.clear() == 0
        assert not (tmp_path / "never-created").exists()


class TestSingleFlightThreads:
    def test_racing_threads_build_exactly_once(self):
        cache = EngineCache(disk=False)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        build_calls = []
        build_gate = threading.Event()

        def build():
            build_calls.append(1)
            build_gate.wait(timeout=5)  # hold every racer at the lock
            return {"answer": 42}

        results = [None] * n_threads

        def racer(i):
            barrier.wait(timeout=5)
            if i == 0:
                # let the pack pile up behind the leader's per-key lock
                threading.Timer(0.05, build_gate.set).start()
            results[i] = cache.memoize("key", build)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(build_calls) == 1
        assert all(r == {"answer": 42} for r in results)

    def test_single_flight_counts_followers_as_hits(self):
        cache = EngineCache(disk=False)
        first = cache.memoize("k", lambda: {"v": 1})
        second = cache.memoize("k", lambda: pytest.fail("must not rebuild"))
        assert first == second
        assert cache.stats.hits >= 1

    def test_racing_builders_build_one_graph(self, tmp_path, monkeypatch):
        """Two threads asking cached_dec_graph for one key build it once."""
        from repro.cdag.strassen_cdag import dec_graph
        from repro.engine import builders

        started = threading.Event()

        def slow_dec_graph(*args, **kwargs):
            started.set()
            time.sleep(0.2)  # long enough for the second thread to arrive
            return dec_graph(*args, **kwargs)

        monkeypatch.setattr(builders, "dec_graph", slow_dec_graph)
        cache = EngineCache(tmp_path / "c")
        results = [None, None]

        def racer(i):
            if i == 1:
                started.wait(timeout=5)  # the leader is mid-build
            results[i] = builders.cached_dec_graph("strassen", 2, cache=cache)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert cache.stats.builds == 1
        assert results[0] is results[1]

    def test_distinct_keys_have_distinct_locks(self):
        cache = EngineCache(disk=False)
        assert cache.lock("a") is cache.lock("a")
        assert cache.lock("a") is not cache.lock("b")

    def test_memoize_leaves_no_key_locks_behind(self):
        # a long-running server memoizes one key per distinct request; the
        # per-key lock table must not grow with them
        cache = EngineCache(disk=False)
        for i in range(50):
            assert cache.memoize(f"k{i}", lambda i=i: i + 1) == i + 1
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait(timeout=5)
            cache.memoize("shared", lambda: time.sleep(0.05) or "v")

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert cache._key_locks == {}


class TestLruByteCap:
    def test_eviction_is_lru_ordered(self):
        from repro.engine.cache import _approx_nbytes

        arr = np.zeros(1000, dtype=np.uint8)  # ~1 KB payload each
        cap = 3 * _approx_nbytes({"x": arr.copy()})  # room for exactly three
        cache = EngineCache(disk=False, memory_items=100, memory_bytes=cap)
        for name in ("a", "b", "c"):
            cache.put_object(name, {"x": arr.copy()})
        cache.get_object("a")  # refresh: "b" is now the LRU entry
        cache.put_object("d", {"x": arr.copy()})
        assert cache.get_object("b") is None  # evicted first
        assert cache.get_object("a") is not None
        assert cache.stats.evictions >= 1

    def test_item_cap_still_applies(self):
        cache = EngineCache(disk=False, memory_items=2)
        for name in ("a", "b", "c"):
            cache.put_object(name, name)
        assert cache.get_object("a") is None
        assert cache.get_object("c") == "c"
        assert cache.stats.evictions == 1

    def test_oversized_object_is_served_but_not_retained(self):
        cache = EngineCache(disk=False, memory_bytes=100)
        big = np.zeros(10_000, dtype=np.uint8)
        cache.put_object("big", big)
        assert cache.get_object("big") is None  # never retained
        assert cache.info()["memory"]["items"] == 0

    def test_replacing_a_key_updates_the_byte_ledger(self):
        cache = EngineCache(disk=False, memory_bytes=1 << 20)
        cache.put_object("k", np.zeros(1000, dtype=np.uint8))
        first = cache.info()["memory"]["bytes"]
        cache.put_object("k", np.zeros(10, dtype=np.uint8))
        second = cache.info()["memory"]["bytes"]
        assert 0 < second < first
        assert cache.info()["memory"]["items"] == 1


_WRITER_SNIPPET = """
import sys
import numpy as np
from repro.engine.cache import EngineCache, cache_key

root, worker = sys.argv[1], int(sys.argv[2])
cache = EngineCache(root)
key = cache_key("race", None, shared=True)
arrays = {"payload": np.arange(4096, dtype=np.int64)}
for _ in range(25):
    cache.put_arrays(key, arrays)
    got = cache.get_arrays(key)
    assert got is None or np.array_equal(got["payload"], arrays["payload"])
print("ok", worker)
"""


class TestMultiProcessWriters:
    def test_same_key_writers_race_safely(self, tmp_path):
        """Concurrent processes hammer one key; atomic rename keeps every
        read either a clean miss or the full, uncorrupted bundle."""
        import os
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        root = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SNIPPET, str(root), str(i)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for i in range(4)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err.decode()
            assert out.decode().startswith("ok")
        # afterwards the shared entry is whole and loadable
        reader = EngineCache(root)
        key = cache_key("race", None, shared=True)
        got = reader.get_arrays(key)
        assert got is not None
        assert np.array_equal(got["payload"], np.arange(4096, dtype=np.int64))
        # no temp-file litter survived the stampede
        assert not list(root.glob("**/*.tmp"))


class TestStatsMergePlumbing:
    def test_delta_and_merge_round_trip(self):
        parent = EngineCache(disk=False)
        worker = CacheStats(hits=2, misses=1, stores=1, builds=1, disk_errors=0, evictions=3)
        parent.merge_stats(worker.delta_since(CacheStats().as_dict()))
        assert parent.stats.as_dict() == worker.as_dict()

    def test_merge_is_additive(self):
        parent = EngineCache(disk=False)
        parent.count_build()
        parent.merge_stats({"builds": 2})
        assert parent.stats.builds == 3


def _child_namespace() -> str:
    return cache_mod.CACHE_NAMESPACE


@pytest.fixture
def package_copy(tmp_path) -> Path:
    """A byte-identical copy of the ``repro`` package source."""
    src = Path(cache_mod.__file__).resolve().parents[1]
    dst = tmp_path / "repro"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


class TestSourceNamespace:
    """Keys carry a digest of the package source: no version to bump."""

    @pytest.mark.parametrize(
        "rel",
        [
            "engine/cache.py",
            "core/certify.py",
            "machine/distributed.py",
            "parallel/caps.py",
            "core/_native/exactscan.c",
        ],
    )
    def test_one_byte_source_edit_moves_the_namespace(self, package_copy, rel):
        assert source_digest(package_copy) == CACHE_NAMESPACE
        with open(package_copy / rel, "ab") as f:
            f.write(b"\n")
        assert source_digest(package_copy) != CACHE_NAMESPACE

    def test_bytecode_and_non_source_files_do_not_move_it(self, package_copy):
        (package_copy / "engine" / "__pycache__").mkdir()
        (package_copy / "engine" / "__pycache__" / "cache.cpython-312.pyc").write_bytes(b"x")
        (package_copy / "notes.txt").write_text("not source\n")
        assert source_digest(package_copy) == CACHE_NAMESPACE

    def test_changed_namespace_rebuilds_instead_of_reading_stale(self, tmp_path, monkeypatch):
        root = tmp_path / "disk"
        cold = EngineCache(root)
        expected = cached_estimate("strassen", 2, cache=cold)
        assert cold.stats.builds > 0

        warm = EngineCache(root)
        assert cached_estimate("strassen", 2, cache=warm).upper == expected.upper
        assert warm.stats.builds == 0

        monkeypatch.setattr(cache_mod, "CACHE_NAMESPACE", "0" * 64)
        edited = EngineCache(root)
        assert cached_estimate("strassen", 2, cache=edited).upper == expected.upper
        assert edited.stats.builds > 0

    def test_spawned_child_computes_the_same_namespace(self):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(_child_namespace) == CACHE_NAMESPACE
