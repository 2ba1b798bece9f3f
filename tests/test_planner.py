"""Tests for the topology-aware auto-scheduler (repro.engine.planner).

The planner's optimality invariants (the ISSUE's satellite 3):

* on the uniform machine the chosen plan's regime matches the Table-I
  ``scaling_regime`` classifier evaluated at the plan's own footprint;
* no searched plan's predicted words undercut the memory-independent
  lower bound;
* predicted costs track execute()-measured counters within the declared
  constant factor on every searched uniform configuration.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.bounds import memory_independent_bound, scaling_regime
from repro.engine.cache import EngineCache
from repro.engine.planner import (
    default_memory_ladder,
    enumerate_plans,
    plan,
    plan_report,
)
from repro.parallel import get_parallel
from repro.topology import Topology
from repro.util.matgen import integer_matrix

GOLDEN = Path(__file__).parent / "data" / "plan_golden.json"


class TestEnumerate:
    def test_ranked_by_predicted_time(self):
        plans, searched = enumerate_plans(56, p_max=16)
        assert searched >= len(plans) > 0
        times = [pl.predicted_time for pl in plans]
        assert times == sorted(times)

    def test_memory_limit_prunes(self):
        all_plans, _ = enumerate_plans(56, p_max=16)
        tight, _ = enumerate_plans(56, p_max=16, memory_limit=800)
        assert len(tight) < len(all_plans)
        assert all(pl.memory <= 800 for pl in tight)

    def test_algos_filter(self):
        plans, _ = enumerate_plans(56, p_max=16, algos=("cannon",))
        assert {pl.algorithm for pl in plans} == {"cannon"}

    def test_topology_capacity_caps_p(self):
        plans, _ = enumerate_plans(56, topology=Topology.uniform(p=8))
        assert all(pl.p <= 8 for pl in plans)

    def test_caps_schedules_in_search_space(self):
        plans, _ = enumerate_plans(56, p_max=49)
        schedules = {pl.schedule for pl in plans if pl.algorithm == "caps"}
        assert len(schedules) > 1  # BFS and DFS-prefixed variants compete


class TestOptimalityInvariants:
    """Satellite 3: the planner agrees with the paper's Table-I classifier."""

    def test_uniform_regime_matches_table1_classifier(self):
        # the winner under a tight memory limit sits in the memory-dependent
        # regime; with memory unconstrained the memory-independent floor binds
        n = 4096
        tight_limit, _, _ = default_memory_ladder(n, 64)
        tight = plan(n, memory_limit=tight_limit, cache=None)
        free = plan(n, cache=None)
        assert tight[0].binding == "memory-dependent"
        assert free[0].binding == "memory-independent"
        assert tight[0].algorithm != free[0].algorithm  # the regime flip

    def test_plan_binding_is_scaling_regime_at_own_footprint(self):
        plans, _ = enumerate_plans(4096)
        for pl in plans:
            regime = scaling_regime(pl.n, pl.p, max(1, math.ceil(pl.memory)), pl.omega0)
            assert pl.binding == regime.binding
            assert pl.lower_bound == regime.bound

    def test_no_plan_undercuts_memory_independent_bound(self):
        for n in (56, 4096):
            plans, _ = enumerate_plans(n)
            assert plans
            for pl in plans:
                floor = memory_independent_bound(n, pl.p, pl.omega0)
                assert pl.words >= 0.99 * floor, (
                    f"{pl.label} at p={pl.p} undercuts the memory-independent floor"
                )

    def test_predicted_time_at_least_comm_lower_bound_term(self):
        # β=1, α=1 uniform: predicted time is at least the binding bound's
        # word term (the planner can never promise beating the paper)
        plans, _ = enumerate_plans(4096)
        for pl in plans:
            assert pl.predicted_time >= 0.99 * pl.lower_bound


class TestEstimateAgainstExecution:
    def test_predictions_track_measured_counters(self):
        # acceptance: within the declared constant factor on every searched
        # uniform configuration (n=56 keeps the simulation cheap)
        A = integer_matrix(56, seed=11)
        B = integer_matrix(56, seed=13)
        plans, _ = enumerate_plans(56, p_max=49)
        assert plans
        for pl in plans:
            r = get_parallel(pl.algorithm).execute(A, B, pl.config())
            assert 0.25 <= r.critical_words / max(pl.words, 1) <= 4.0
            assert 0.25 <= r.critical_messages / max(pl.messages, 1) <= 4.0
            assert 0.25 <= r.max_mem_peak / max(pl.memory, 1) <= 4.0


class TestPlanCache:
    def test_warm_call_builds_nothing(self, tmp_path):
        cache = EngineCache(tmp_path / "cache")
        first = plan(56, topology=Topology.parse("fat-tree:4x4"), cache=cache)
        snap = cache.stats.as_dict()
        second = plan(56, topology=Topology.parse("fat-tree:4x4"), cache=cache)
        delta = cache.stats.delta_since(snap)
        assert delta["builds"] == 0
        assert delta["hits"] >= 1
        assert [pl.as_dict() for pl in first] == [pl.as_dict() for pl in second]

    def test_distinct_topologies_distinct_entries(self, tmp_path):
        cache = EngineCache(tmp_path / "cache")
        ft = plan(56, topology=Topology.parse("fat-tree:4x4"), cache=cache)
        tor = plan(56, topology=Topology.parse("torus:4x4"), cache=cache)
        assert cache.stats.builds == 2
        assert [p.label for p in ft] != [p.label for p in tor] or (
            [p.predicted_time for p in ft] != [p.predicted_time for p in tor]
        )

    def test_disk_roundtrip_preserves_ranking(self, tmp_path):
        root = tmp_path / "cache"
        first = plan(56, cache=EngineCache(root))
        reread = plan(56, cache=EngineCache(root))  # fresh memory tier
        assert [pl.as_dict() for pl in first] == [pl.as_dict() for pl in reread]


class TestPlanReport:
    def test_fat_tree_winner_flips_across_ladder(self, tmp_path):
        report = plan_report(
            4096,
            topology=Topology.parse("fat-tree:16x4"),
            cache=EngineCache(tmp_path / "cache"),
        )
        assert report["flips"] is True
        assert len(set(report["winners"].values())) >= 2

    def test_report_is_json_ready(self, tmp_path):
        report = plan_report(56, cache=EngineCache(tmp_path / "cache"))
        json.dumps(report, allow_nan=False)
        assert report["tables"]
        assert "unlimited" in report["winners"]


    def test_winner_table_per_topology(self):
        expected = {
            "uniform": {"196": "2.5d", "1568": "3d", "unlimited": "3d"},
            "fat-tree:4x4": {"784": "2.5d", "6272": "summa", "unlimited": "summa"},
            "torus:4x4": {"784": "2.5d", "6272": "summa", "unlimited": "summa"},
        }
        ranked = 0
        for spec, winners in expected.items():
            report = plan_report(56, topology=Topology.parse(spec), cache=EngineCache(disk=False))
            assert report["winners"] == winners
            assert report["flips"] is True
            ranked += sum(len(t["rows"]) for t in report["tables"])
        assert ranked == 87


class TestGoldenRanking:
    """The pinned plan table the plan-smoke CI leg replays."""

    def test_matches_golden(self, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        spec = doc["spec"]
        plans = plan(
            spec["n"],
            scheme=spec["scheme"],
            topology=Topology.parse(spec["topology"]),
            memory_limit=spec["memory_limit"],
            p_max=spec["p_max"],
            cache=EngineCache(tmp_path / "cache"),
        )
        got = [
            {
                "label": pl.label,
                "p": pl.p,
                "schedule": pl.schedule,
                "predicted_time": round(pl.predicted_time, 6),
                "words": pl.words,
                "messages": pl.messages,
                "binding": pl.binding,
            }
            for pl in plans
        ]
        assert got == doc["plans"]


class TestMemoryLadder:
    def test_ladder_shape(self):
        tight, mid, top = default_memory_ladder(4096, 64)
        assert tight < mid
        assert top is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            default_memory_ladder(0, 64)
