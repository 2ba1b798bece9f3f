"""Tests for the experiment engine: cache round-trips, grid runner, CLI."""

import json
import math
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from repro.cdag.schemes import available_schemes, classical_scheme, get_scheme
from repro.cdag.strassen_cdag import dec_graph, dec_vertex_count, h_graph
from repro.core.exact import effective_exact_limit, exact_edge_expansion_v2
from repro.core.expansion import POLICIES, estimate_expansion
from repro.engine import (
    AUTO_SPECTRAL_LIMIT,
    EngineCache,
    GridPoint,
    GridSpec,
    cache_key,
    cached_dec_graph,
    cached_estimate,
    cached_h_graph,
    cached_spectrum,
    evaluate_point,
    run_grid,
    scheme_fingerprint,
)
from repro.engine.cli import main


@pytest.fixture
def cache(tmp_path):
    return EngineCache(tmp_path / "cache")


def _rows_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
            if not math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15):
                return False
        elif x != y:
            return False
    return True


class TestKeys:
    def test_key_distinguishes_depth_options_and_scheme(self):
        s = get_scheme("strassen")
        w = get_scheme("winograd")
        keys = {
            cache_key("dec", s, k=2, expand_trees=False),
            cache_key("dec", s, k=3, expand_trees=False),
            cache_key("dec", s, k=2, expand_trees=True),
            cache_key("dec", w, k=2, expand_trees=False),
            cache_key("spectrum", s, k=2),
        }
        assert len(keys) == 5

    def test_fingerprint_is_content_addressed(self):
        # same coefficients under a different registry name share artifacts
        s = get_scheme("strassen")
        from repro.cdag.schemes import BilinearScheme

        clone = BilinearScheme(
            "renamed", s.m0, s.n0, s.p0, s.U.copy(), s.V.copy(), s.W.copy()
        )
        assert scheme_fingerprint(clone) == scheme_fingerprint(s)


class TestCacheRoundTrip:
    def test_graph_roundtrip_is_bit_identical(self, cache, tmp_path):
        g1 = cached_dec_graph("strassen", 3, cache=cache)
        assert cache.stats.builds == 1
        # a fresh instance over the same root: pure disk hit, no rebuild
        cache2 = EngineCache(tmp_path / "cache")
        g2 = cached_dec_graph("strassen", 3, cache=cache2)
        assert cache2.stats.builds == 0
        assert cache2.stats.hits == 1
        direct = dec_graph("strassen", 3)
        for loaded in (g1, g2):
            assert loaded.n_vertices == direct.n_vertices
            for name in ("src", "dst", "kinds", "levels"):
                a, b = getattr(loaded, name), getattr(direct, name)
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_second_lookup_is_a_memory_hit(self, cache):
        g1 = cached_dec_graph("strassen", 2, cache=cache)
        before = cache.stats.as_dict()
        assert cached_dec_graph("strassen", 2, cache=cache) is g1
        delta = cache.stats.delta_since(before)
        assert delta["hits"] == 1 and delta["builds"] == 0

    def test_h_graph_roundtrip(self, cache, tmp_path):
        cached_h_graph("strassen", 2, cache=cache)
        cache2 = EngineCache(tmp_path / "cache")
        hg2 = cached_h_graph("strassen", 2, cache=cache2)
        assert cache2.stats.builds == 0
        direct = h_graph("strassen", 2)
        assert hg2.cdag.n_vertices == direct.cdag.n_vertices
        assert hg2.cdag.n_edges == direct.cdag.n_edges
        for name in ("a_inputs", "b_inputs", "mult_ids", "output_ids", "dec_ids"):
            assert np.array_equal(getattr(hg2, name), getattr(direct, name))
        assert hg2.scheme_name == "strassen" and hg2.k == 2

    def test_spectrum_roundtrip(self, cache, tmp_path):
        lower1, fiedler1 = cached_spectrum("strassen", 3, cache=cache)
        cache2 = EngineCache(tmp_path / "cache")
        lower2, fiedler2 = cached_spectrum("strassen", 3, cache=cache2)
        assert cache2.stats.builds == 0
        assert lower1 == lower2
        assert np.array_equal(fiedler1, fiedler2)

    def test_estimate_roundtrip(self, cache, tmp_path):
        est1 = cached_estimate("strassen", 3, policy="spectral", cache=cache)
        cache2 = EngineCache(tmp_path / "cache")
        est2 = cached_estimate("strassen", 3, policy="spectral", cache=cache2)
        assert cache2.stats.builds == 0
        assert est1 == est2  # exact float equality through the npz round-trip

    def test_memory_only_cache_never_touches_disk(self, tmp_path):
        root = tmp_path / "never-created"
        c = EngineCache(root, disk=False)
        cached_dec_graph("strassen", 2, cache=c)
        assert not root.exists()

    def test_corrupt_entry_is_a_miss_and_rebuilt(self, cache, tmp_path):
        cached_dec_graph("strassen", 2, cache=cache)
        for path in (tmp_path / "cache").glob("*/*.npz"):
            path.write_bytes(b"not a zip file")
        cache2 = EngineCache(tmp_path / "cache")
        g = cached_dec_graph("strassen", 2, cache=cache2)
        assert cache2.stats.builds == 1
        assert g.n_vertices == dec_graph("strassen", 2).n_vertices

    def test_clear_and_info(self, cache):
        cached_dec_graph("strassen", 2, cache=cache)
        info = cache.info()
        assert info["entries"] >= 1 and info["bytes"] > 0
        removed = cache.clear()
        assert removed == info["entries"]
        assert cache.info()["entries"] == 0


class TestStatsReset:
    """Per-phase counts read as increments since a ``stats_snapshot()``."""

    def test_cold_warm_accounting_is_exact(self, cache):
        # the bench harness's pattern: warm the cache, snapshot, then measure
        cached_estimate("strassen", 2, cache=cache)
        before = cache.stats_snapshot()
        cached_estimate("strassen", 2, cache=cache)
        stats = cache.stats.delta_since(before)
        assert stats == {
            "hits": 1,
            "misses": 0,
            "stores": 0,
            "builds": 0,
            "disk_errors": 0,
            "evictions": 0,
        }

    def test_memoize_accounting_cold_memory_and_disk(self, cache, tmp_path):
        """Exact counters of EngineCache.memoize on its three paths.

        Cold, ``cached_estimate`` builds the estimate, the spectrum and the
        graph (the spectrum's graph lookup is the one memory hit); warm in
        memory it is one hit; warm on disk only (a fresh instance over the
        same root) it is one memory miss plus one array hit, with no build.
        """

        def counts(c: EngineCache, before: dict[str, int]) -> dict[str, int]:
            got = c.stats.delta_since(before)
            assert got.pop("disk_errors") == 0 and got.pop("evictions") == 0
            return got

        before = cache.stats_snapshot()
        cached_estimate("strassen", 2, cache=cache)
        assert counts(cache, before) == {"hits": 1, "misses": 6, "stores": 3, "builds": 3}
        before = cache.stats_snapshot()
        cached_estimate("strassen", 2, cache=cache)
        assert counts(cache, before) == {"hits": 1, "misses": 0, "stores": 0, "builds": 0}
        disk_only = EngineCache(tmp_path / "cache")
        before = disk_only.stats_snapshot()
        cached_estimate("strassen", 2, cache=disk_only)
        assert counts(disk_only, before) == {"hits": 1, "misses": 1, "stores": 0, "builds": 0}

    def test_memory_only_memoize_counts_no_build(self):
        cache = EngineCache(disk=False)
        cache.memoize("k", lambda: {"v": 1})
        cache.memoize("k", lambda: pytest.fail("must not rebuild"))
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 0,
            "builds": 0,
            "disk_errors": 0,
            "evictions": 0,
        }


class TestEstimatePolicies:
    def test_exact_policy_matches_enumeration(self, cache):
        est = cached_estimate("strassen", 1, policy="exact", cache=cache)
        h, mask = exact_edge_expansion_v2(dec_graph("strassen", 1))
        assert est.lower == est.upper == pytest.approx(h)
        assert est.method == "exact"

    def test_auto_policy_selects_by_size(self, cache):
        assert cached_estimate("strassen", 1, cache=cache).method == "exact"
        est3 = cached_estimate("strassen", 3, cache=cache)
        assert est3.method.startswith("spectral")
        est5 = cached_estimate("strassen", 5, cache=cache)
        assert est5.method == "cone-only"
        assert math.isnan(est5.lower)

    def test_unknown_policy_rejected(self, cache):
        with pytest.raises(ValueError, match="policy"):
            cached_estimate("strassen", 2, policy="bogus", cache=cache)

    def test_auto_estimates_track_exact_limit_changes(self, cache, monkeypatch):
        """Changing REPRO_EXACT_LIMIT must never replay a stale auto estimate.

        The auto policy's method choice depends on the enumeration ceiling,
        so the effective ceiling is part of the estimate's cache key; before
        that, lowering the env var after a warm run kept returning the
        exact-method artifact computed under the old ceiling.
        """
        warm = cached_estimate("strassen", 1, policy="auto", cache=cache)
        assert warm.method == "exact"  # 11 vertices, default ceiling 28

        monkeypatch.setenv("REPRO_EXACT_LIMIT", "1")
        shrunk = cached_estimate("strassen", 1, policy="auto", cache=cache)
        assert shrunk.method.startswith("spectral")  # not the stale exact entry

        monkeypatch.delenv("REPRO_EXACT_LIMIT")
        restored = cached_estimate("strassen", 1, policy="auto", cache=cache)
        assert restored.method == "exact"
        assert restored == warm

    def test_fixed_policies_are_limit_independent(self, cache, monkeypatch):
        warm = cached_estimate("strassen", 1, policy="exact", cache=cache)
        hits_before = cache.stats.hits
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "1")
        again = cached_estimate("strassen", 1, policy="exact", cache=cache)
        assert again == warm
        assert cache.stats.hits > hits_before  # same key: served from cache


def _ladder_cases():
    cases = []
    for name in available_schemes():
        for k in (1, 2, 3):
            n = dec_vertex_count(get_scheme(name), k)
            if n > AUTO_SPECTRAL_LIMIT:
                continue  # auto turns into cone there (pinned below)
            for policy in POLICIES:
                if policy != "exact" or n <= effective_exact_limit():
                    cases.append((name, k, policy))
    return cases


def _fields(est):
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in astuple(est))


class TestOneLadder:
    """``cached_estimate`` is ``estimate_expansion`` memoized, nothing more."""

    @pytest.mark.parametrize(("scheme", "k", "policy"), _ladder_cases())
    def test_cached_estimate_is_the_memoized_estimator(self, scheme, k, policy):
        direct = estimate_expansion(dec_graph(scheme, k), scheme, k, policy=policy)
        cached = cached_estimate(scheme, k, policy, cache=EngineCache(disk=False))
        assert _fields(cached) == _fields(direct)
        assert cached.interval() == direct.interval()

    def test_auto_is_exact_at_the_limit_and_spectral_above(self, monkeypatch):
        g = dec_graph("strassen", 1)
        monkeypatch.setenv("REPRO_EXACT_LIMIT", str(g.n_vertices))
        assert estimate_expansion(g).method == "exact"
        monkeypatch.setenv("REPRO_EXACT_LIMIT", str(g.n_vertices - 1))
        assert estimate_expansion(g).method == "spectral+sweep"

    def test_engine_cost_rule_keeps_dec5_cone_only(self):
        cache = EngineCache(disk=False)
        est = cached_estimate("strassen", 5, cache=cache)
        assert est.method == "cone-only" and math.isnan(est.lower)
        assert cache.stats.builds == 2  # Dec_5 and the estimate; no eigensolve

    def test_spectral_falls_back_to_the_sweep_without_a_feasible_cone(self):
        one = classical_scheme(1)  # Dec_3 is a 4-vertex path; its one cone is too big
        g = dec_graph(one, 3)
        assert estimate_expansion(g, one, 3, policy="spectral").method == "spectral+sweep"
        with pytest.raises(ValueError, match="no feasible decode cone"):
            estimate_expansion(g, one, 3, policy="cone")


class TestGrid:
    SPEC = GridSpec.from_ranges(
        schemes=("strassen", "winograd"), k_max=3, memories=(48, 192)
    )

    def test_warm_sweep_has_zero_rebuilds(self, cache):
        cold = run_grid(self.SPEC, cache=cache)
        assert cold.rebuilds > 0
        warm = run_grid(self.SPEC, cache=cache)
        assert warm.rebuilds == 0
        assert warm.stats["hits"] > 0
        assert len(warm.rows) == len(self.SPEC.points())
        for a, b in zip(cold.rows, warm.rows):
            assert _rows_equal(a, b)

    def test_warm_sweep_totals_at_dec4(self):
        spec = GridSpec.from_ranges(
            schemes=("strassen", "winograd"), k_max=4, memories=(48, 192, 768, 3072)
        )
        cache = EngineCache(disk=False)
        run_grid(spec, cache=cache)
        warm = run_grid(spec, cache=cache)
        assert warm.rebuilds == 0
        assert len(warm.rows) == 32
        assert sum(r["V"] for r in warm.rows) == 48640
        assert sum(r["E"] for r in warm.rows) == 85280
        assert warm.rows[-1]["h_upper"] == pytest.approx(0.011188811188811189, rel=1e-4)
        assert warm.rows[-1]["io_lower_bound"] == 512.0

    def test_parallel_equals_serial(self, tmp_path):
        serial = run_grid(self.SPEC, cache=EngineCache(tmp_path / "serial"))
        parallel = run_grid(
            self.SPEC, workers=2, cache=EngineCache(tmp_path / "parallel")
        )
        assert parallel.workers == 2
        assert len(parallel.rows) == len(serial.rows)
        for a, b in zip(serial.rows, parallel.rows):
            assert _rows_equal(a, b)

    def test_row_fields(self, cache):
        row = evaluate_point(GridPoint("strassen", 2, 48), cache=cache)
        assert row["V"] == 93 and row["n"] == 4
        assert row["io_lower_bound"] > 0
        assert row["measured_words"] > 0
        assert row["method"] in ("exact", "spectral+sweep", "spectral+cone")

    def test_report_json_serializes(self, cache):
        report = run_grid(self.SPEC, cache=cache)
        decoded = json.loads(report.to_json())
        assert decoded["stats"]["builds"] == report.rebuilds
        assert len(decoded["rows"]) == len(report.rows)

    def test_report_json_is_strict_for_nan_rows(self, cache):
        # cone-only rows carry h_lower = NaN; JSON output must map it to
        # null (literal NaN is rejected by strict parsers)
        spec = GridSpec(schemes=("strassen",), ks=(5,), memories=(192,))
        report = run_grid(spec, cache=cache)
        assert math.isnan(report.rows[0]["h_lower"])
        text = report.to_json()
        assert "NaN" not in text
        assert json.loads(text)["rows"][0]["h_lower"] is None


class TestCLI:
    def test_schemes_listing(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "strassen" in out and "winograd" in out

    @pytest.mark.parametrize("command", ["scaling", "plan"])
    @pytest.mark.parametrize("cs", ["0", "-1"])
    def test_replication_factor_below_one_exits_2(self, tmp_path, capsys, command, cs):
        argv = ["--cache-dir", str(tmp_path / "c"), command, "--n", "56", "--cs", "1", cs]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "replication factor" in err

    def test_sweep_smoke(self, tmp_path, capsys):
        argv = [
            "--cache-dir",
            str(tmp_path / "c"),
            "sweep",
            "--schemes",
            "strassen",
            "--k-max",
            "2",
            "--memories",
            "48",
            "192",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "builds=" in first
        assert main(argv) == 0  # warm: same grid, zero rebuilds
        second = capsys.readouterr().out
        assert "builds=0" in second

    def test_sweep_json(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--cache-dir",
                    str(tmp_path / "c"),
                    "sweep",
                    "--schemes",
                    "strassen",
                    "--k-max",
                    "1",
                    "--memories",
                    "48",
                    "--json",
                ]
            )
            == 0
        )
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["rows"][0]["scheme"] == "strassen"

    def test_expansion_command(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--cache-dir",
                    str(tmp_path / "c"),
                    "expansion",
                    "--scheme",
                    "strassen",
                    "--k",
                    "2",
                ]
            )
            == 0
        )
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["lower"] <= decoded["upper"]

    def test_cache_info_and_clear(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        main(["--cache-dir", root, "expansion", "--k", "1"])
        capsys.readouterr()
        assert main(["--cache-dir", root, "cache", "info"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] >= 1
        assert main(["--cache-dir", root, "cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--cache-dir", str(tmp_path), "schemes"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "strassen" in proc.stdout
