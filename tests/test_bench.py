"""Tests for the benchmark subsystem (repro.engine.bench + the CLI gate).

Covers the registry round-trip, the pinned BENCH_*.json schema (golden
file under tests/data/), the --compare pass/fail/threshold paths, the
fresh-cache-per-round harness contract, and the determinism of workload
selection.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import cli
from repro.engine.bench import (
    BENCH_SCHEMA_VERSION,
    _BENCHES,
    available_benches,
    compare_benchmarks,
    get_bench,
    load_bench_file,
    register_bench,
    render_comparison,
    run_bench,
    run_suite,
    selected_benches,
    write_bench_file,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "bench_golden.json").read_text()
)


@pytest.fixture
def scratch_workload():
    """Register a throwaway workload; always unregister afterwards."""
    calls = []

    @register_bench("scratch", params={"x": 2, "y": 10}, rounds=3)
    def _scratch(cache, x, y):
        """Scratch workload for the harness tests."""
        calls.append((x, y))
        return {"product": x * y, "check": {"product": x * y}}

    yield calls
    _BENCHES.pop("scratch", None)


class TestRegistry:
    def test_registry_round_trip(self, scratch_workload):
        assert "scratch" in available_benches()
        w = get_bench("scratch")
        assert w.name == "scratch"
        assert w.description.startswith("Scratch workload")
        assert w.params == {"x": 2, "y": 10}
        assert w.rounds == 3

    def test_duplicate_name_rejected(self, scratch_workload):
        with pytest.raises(ValueError, match="already registered"):
            register_bench("scratch")(lambda cache: {"check": {}})

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark workload"):
            get_bench("definitely-not-registered")


class TestSelection:
    def test_selection_is_deterministic(self):
        assert selected_benches() == selected_benches()
        assert selected_benches() == available_benches()

    def test_subset_is_reordered_to_registry_order(self):
        names = available_benches()
        subset = [names[2], names[0]]
        assert selected_benches(subset) == [names[0], names[2]]

    def test_unknown_selection_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark workload"):
            selected_benches(["nope"])


class TestHarness:
    def test_run_bench_record_shape_and_rounds(self, scratch_workload):
        rec = run_bench("scratch", rounds=3)
        assert rec["rounds"] == 3
        assert len(rec["seconds"]["raw"]) == 3
        assert rec["seconds"]["min"] <= rec["seconds"]["p50"] <= rec["seconds"]["max"]
        assert rec["check"] == {"product": 20}
        assert rec["cache"] == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "builds": 0,
            "disk_errors": 0,
            "evictions": 0,
        }
        assert rec["peak_rss_kb"] > 0

    def test_registered_params_and_rounds_are_the_default(self, scratch_workload):
        rec = run_bench("scratch")
        assert rec["rounds"] == 3
        assert rec["params"] == {"x": 2, "y": 10}
        assert scratch_workload == [(2, 10)] * 3

    def test_every_round_gets_a_fresh_cache(self):
        caches = []

        @register_bench("memo")
        def _memo(cache):
            caches.append(cache)
            cache.memoize(
                "memo",
                lambda: 1,
                encode=lambda v: {"v": np.array([v])},
                decode=lambda arrays: int(arrays["v"][0]),
            )
            return {"check": {}}

        try:
            rec = run_bench("memo", rounds=3)
        finally:
            _BENCHES.pop("memo", None)
        assert len({id(c) for c in caches}) == 3
        # one build per round, summed: no round saw another round's artifact
        assert rec["cache"]["builds"] == 3
        assert rec["cache"]["hits"] == 0

    def test_zero_rounds_rejected(self, scratch_workload):
        with pytest.raises(ValueError, match="at least one"):
            run_bench("scratch", rounds=0)

    def test_payload_without_check_rejected(self):
        @register_bench("badcheck")
        def _bad(cache):
            return {"oops": 1}

        try:
            with pytest.raises(TypeError, match="'check' key"):
                run_bench("badcheck")
        finally:
            _BENCHES.pop("badcheck", None)

    def test_cold_grid_builds_every_round(self):
        one = run_bench("grid_sweep_cold", rounds=1)
        two = run_bench("grid_sweep_cold", rounds=2)
        # a fresh cache per round: both rounds construct every artifact
        assert one["cache"]["builds"] > 0
        assert two["cache"]["builds"] == 2 * one["cache"]["builds"]


class TestSchemaGolden:
    """The BENCH_*.json layout is pinned by tests/data/bench_golden.json."""

    @pytest.fixture(scope="class")
    def doc(self):
        return run_suite(names=["seq_io_simulate"], rounds=1, tag="schema-test")

    def test_schema_version(self, doc):
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION == GOLDEN["schema_version"]

    def test_top_level_keys(self, doc):
        assert sorted(doc.keys()) == GOLDEN["top_level_keys"]
        assert sorted(doc["host"].keys()) == GOLDEN["host_keys"]

    def test_workload_record_keys(self, doc):
        for rec in doc["workloads"].values():
            assert sorted(rec.keys()) == GOLDEN["workload_keys"]
            assert sorted(rec["seconds"].keys()) == GOLDEN["seconds_keys"]
            assert sorted(rec["cache"].keys()) == GOLDEN["cache_keys"]
            assert sorted(rec["pool"].keys()) == GOLDEN["pool_keys"]

    def test_check_values_are_pinned(self, doc):
        # science outputs of deterministic integer workloads never drift
        for name, expected in GOLDEN["checks"].items():
            assert doc["workloads"][name]["check"] == expected

    def test_file_round_trip(self, doc, tmp_path):
        path = write_bench_file(doc, tmp_path / "BENCH_t.json")
        loaded = load_bench_file(path)
        assert loaded["workloads"].keys() == doc["workloads"].keys()
        expected = GOLDEN["checks"]["seq_io_simulate"]
        assert loaded["workloads"]["seq_io_simulate"]["check"] == expected

    def test_wrong_schema_version_rejected(self, doc, tmp_path):
        bad = dict(doc, schema_version=BENCH_SCHEMA_VERSION + 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema_version"):
            load_bench_file(path)


def _doc(seconds_by_name: dict[str, float], checks: dict | None = None) -> dict:
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tag": "synthetic",
        "created_unix": 0.0,
        "host": {},
        "workloads": {
            name: {
                "params": {},
                "rounds": 1,
                "seconds": {
                    "raw": [s],
                    "min": s,
                    "max": s,
                    "mean": s,
                    "p50": s,
                    "p90": s,
                },
                "peak_rss_kb": 1,
                "cache": {
                    "hits": 0,
                    "misses": 0,
                    "stores": 0,
                    "builds": 0,
                    "disk_errors": 0,
                    "evictions": 0,
                },
                "check": (checks or {}).get(name, {"v": 1}),
            }
            for name, s in seconds_by_name.items()
        },
    }


class TestCompare:
    def test_all_ok_passes(self):
        cmp = compare_benchmarks(_doc({"a": 1.0}), _doc({"a": 1.0}))
        assert [r.status for r in cmp.rows] == ["ok"]
        assert not cmp.failed()

    def test_regression_beyond_threshold_fails(self):
        cmp = compare_benchmarks(_doc({"a": 2.1}), _doc({"a": 1.0}), threshold=2.0)
        assert [r.status for r in cmp.rows] == ["regression"]
        assert cmp.failed()
        assert cmp.rows[0].ratio == pytest.approx(2.1)

    def test_threshold_is_respected(self):
        current, base = _doc({"a": 1.9}), _doc({"a": 1.0})
        assert not compare_benchmarks(current, base, threshold=2.0).failed()
        assert compare_benchmarks(current, base, threshold=1.5).failed()

    def test_improvement_is_reported_not_failed(self):
        cmp = compare_benchmarks(_doc({"a": 0.4}), _doc({"a": 1.0}), threshold=2.0)
        assert [r.status for r in cmp.rows] == ["improved"]
        assert not cmp.failed()

    def test_missing_gates_strictly_new_never_does(self):
        cmp = compare_benchmarks(_doc({"b": 1.0}), _doc({"a": 1.0}))
        statuses = {r.name: r.status for r in cmp.rows}
        assert statuses == {"a": "missing", "b": "new"}
        # a baseline workload that did not run is an unenforced gate
        assert cmp.failed()
        only_new = compare_benchmarks(_doc({"a": 1.0, "b": 1.0}), _doc({"a": 1.0}))
        assert not only_new.failed()

    def test_params_mismatch_wins_and_gates_strictly(self):
        current, base = _doc({"a": 50.0}), _doc({"a": 1.0})
        current["workloads"]["a"]["params"] = {"k": 5}
        base["workloads"]["a"]["params"] = {"k": 6}
        # the check values differ too — params_differ must win over both
        current["workloads"]["a"]["check"] = {"v": 2}
        cmp = compare_benchmarks(current, base)
        assert [r.status for r in cmp.rows] == ["params_differ"]
        # an uncomparable workload is an unenforced gate
        assert cmp.failed()

    def test_check_mismatch_fails_strict_only(self):
        current = _doc({"a": 1.0}, checks={"a": {"v": 2}})
        cmp = compare_benchmarks(current, _doc({"a": 1.0}))
        assert [r.status for r in cmp.rows] == ["check_mismatch"]
        assert cmp.failed()

    def test_check_float_tolerance(self):
        base = _doc({"a": 1.0}, checks={"a": {"v": 1.0}})
        near = _doc({"a": 1.0}, checks={"a": {"v": 1.0 + 1e-9}})
        far = _doc({"a": 1.0}, checks={"a": {"v": 1.01}})
        assert compare_benchmarks(near, base).rows[0].status == "ok"
        assert compare_benchmarks(far, base).rows[0].status == "check_mismatch"

    def test_nested_check_structures(self):
        base = _doc({"a": 1.0}, checks={"a": {"xs": [1, 2, 3], "m": {"k": True}}})
        same = copy.deepcopy(base)
        assert compare_benchmarks(same, base).rows[0].status == "ok"
        drift = copy.deepcopy(base)
        drift["workloads"]["a"]["check"]["xs"][1] = 99
        assert compare_benchmarks(drift, base).rows[0].status == "check_mismatch"

    def test_metric_selects_statistic(self):
        # the gate reads seconds.min: a noisy p90 alone never gates
        current, base = _doc({"a": 1.0}), _doc({"a": 1.0})
        current["workloads"]["a"]["seconds"]["p90"] = 10.0
        assert not compare_benchmarks(current, base).failed()
        current["workloads"]["a"]["seconds"]["min"] = 10.0
        assert compare_benchmarks(current, base).failed()

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_benchmarks(_doc({}), _doc({}), threshold=1.0)

    def test_render_comparison_mentions_summary(self):
        text = render_comparison(compare_benchmarks(_doc({"a": 1.0}), _doc({"a": 1.0})))
        assert "0 regression(s)" in text
        assert "a" in text


class TestCLI:
    BASE_ARGS = ["bench", "--rounds", "1", "--workloads", "seq_io_simulate", "--out"]

    def test_bench_list(self, capsys):
        assert cli.main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "seq_io_simulate" in out
        assert "serve_load" in out

    def test_bench_run_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_x.json"
        rc = cli.main(self.BASE_ARGS + [str(out_path), "--tag", "x"])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["tag"] == "x"
        assert list(doc["workloads"]) == ["seq_io_simulate"]

    def test_bench_compare_pass_and_fail(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert cli.main(self.BASE_ARGS + [str(baseline)]) == 0

        # identical re-run vs itself: passes
        current = tmp_path / "current.json"
        rc = cli.main(
            self.BASE_ARGS + [str(current), "--compare", str(baseline), "--threshold", "100.0"]
        )
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

        # impossibly fast baseline: every workload regresses -> exit 1
        doc = json.loads(baseline.read_text())
        for rec in doc["workloads"].values():
            for key in ("raw", "min", "max", "mean", "p50", "p90"):
                rec["seconds"][key] = [1e-12] if key == "raw" else 1e-12
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(doc))
        rc = cli.main(self.BASE_ARGS + [str(current), "--compare", str(fast)])
        assert rc == 1
        assert "regression" in capsys.readouterr().out

    def test_bench_compare_check_drift_respects_strictness(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert cli.main(self.BASE_ARGS + [str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        doc["workloads"]["seq_io_simulate"]["check"]["words"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(doc))
        current = tmp_path / "current.json"
        # check drift always gates, at any timing threshold
        rc = cli.main(
            self.BASE_ARGS + [str(current), "--compare", str(drifted), "--threshold", "100.0"]
        )
        assert rc == 1
        assert "1 check mismatch(es)" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["missing", "not_an_object", "bad_threshold"])
    def test_bench_compare_rejects_bad_inputs_before_running(self, tmp_path, capsys, case):
        baseline = tmp_path / "baseline.json"
        threshold = "3.0"
        if case == "not_an_object":
            baseline.write_text("[]")
        elif case == "bad_threshold":
            baseline = Path(__file__).parents[1] / "benchmarks" / "baseline_ci.json"
            threshold = "0.5"
        args = self.BASE_ARGS + [str(tmp_path / "current.json")]
        rc = cli.main(args + ["--compare", str(baseline), "--threshold", threshold])
        err = capsys.readouterr().err
        assert rc == 2
        assert "[bench] running" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "current.json").exists()
