"""Tests for the parallel-algorithm registry and the planner-first API."""

import numpy as np
import pytest

from repro.parallel import (
    ParallelConfig,
    ParallelResult,
    available_parallel,
    get_parallel,
    run_parallel,
)
from repro.topology import Topology
from repro.util.matgen import integer_matrix

#: Every (name, run kwargs) config exercised by the uniform-interface tests;
#: all valid at n = 56.
CONFIGS = [
    ("cannon", dict(p=16)),
    ("summa", dict(p=16)),
    ("3d", dict(p=8)),
    ("2.5d", dict(p=32, c=2)),
    ("caps", dict(p=7)),
]


def _pair(n, s1=11, s2=13):
    return integer_matrix(n, seed=s1), integer_matrix(n, seed=s2)


class TestRegistry:
    def test_all_five_registered(self):
        assert available_parallel() == ["2.5d", "3d", "cannon", "caps", "summa"]

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown parallel algorithm"):
            get_parallel("pancake")

    def test_classification_metadata(self):
        for name in available_parallel():
            a = get_parallel(name)
            assert a.algorithm_class in ("classical", "strassen-like")
            assert a.requirement and a.attains
        assert get_parallel("caps").algorithm_class == "strassen-like"
        assert get_parallel("caps").uses_scheme
        assert get_parallel("2.5d").supports_replication

    def test_omega0(self):
        from repro.cdag.schemes import get_scheme

        assert get_parallel("cannon").omega0() == 3.0
        assert get_parallel("caps").omega0(get_scheme("strassen")) == pytest.approx(
            get_scheme("strassen").omega0
        )


class TestUniformRun:
    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_exact_product_via_registry(self, name, kwargs):
        A, B = _pair(56)
        r = run_parallel(name, A, B, verify=True, **kwargs)
        assert isinstance(r, ParallelResult)
        assert np.array_equal(r.C, A @ B)
        assert r.verified is True
        assert r.p == kwargs["p"]

    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_result_carries_analytic_and_peaks(self, name, kwargs):
        A, B = _pair(56)
        r = run_parallel(name, A, B, **kwargs)
        assert r.analytic is not None and r.analytic.words >= 0
        assert len(r.mem_peaks) == r.p
        assert max(r.mem_peaks) == r.max_mem_peak
        log = r.machine.log
        coupled = Topology.uniform(1.0, 1.0).time_from_steps(log.step_msgs, log.step_words)
        assert coupled <= r.critical_messages + r.critical_words  # coupled ≤ separable
        assert r.verified is None  # verify defaults off

    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_run_shim_matches_execute(self, name, kwargs):
        A, B = _pair(56)
        cfg = ParallelConfig(
            n=56, p=kwargs["p"], c=kwargs.get("c", 1),
            scheme="strassen" if name == "caps" else None,
        )
        via_shim = run_parallel(name, A, B, **kwargs)
        via_execute = get_parallel(name).execute(A, B, cfg)
        assert via_shim.critical_words == via_execute.critical_words
        assert via_shim.critical_messages == via_execute.critical_messages
        assert via_shim.max_mem_peak == via_execute.max_mem_peak
        assert via_shim.algorithm == via_execute.algorithm
        assert np.array_equal(via_shim.C, via_execute.C)

    def test_memory_limit_passes_through(self):
        A, B = _pair(56)
        lean = run_parallel("caps", A, B, p=49, schedule="DBB").max_mem_peak
        with pytest.raises(MemoryError):
            run_parallel("caps", A, B, p=49, schedule="BB", memory_limit=lean)


class TestValidityPredicates:
    def test_cannon_requires_square_grid(self):
        A, B = _pair(12)
        with pytest.raises(ValueError, match="perfect square"):
            run_parallel("cannon", A, B, p=12)

    def test_threed_requires_cube(self):
        A, B = _pair(12)
        with pytest.raises(ValueError, match="perfect cube"):
            run_parallel("3d", A, B, p=16)

    def test_two5d_requires_layered_square(self):
        A, B = _pair(24)
        with pytest.raises(ValueError, match="q²·c"):
            run_parallel("2.5d", A, B, p=24, c=2)
        with pytest.raises(ValueError, match="divisible by the"):
            run_parallel("2.5d", A, B, p=48, c=3)  # q=4, 4 % 3 != 0

    def test_caps_requires_power_of_rank(self):
        A, B = _pair(56)
        with pytest.raises(ValueError, match="power of the scheme's rank"):
            run_parallel("caps", A, B, p=10)

    def test_replication_rejected_by_non_replicating(self):
        A, B = _pair(16)
        with pytest.raises(ValueError, match="no replication factor"):
            run_parallel("cannon", A, B, p=16, c=2)

    def test_scheme_rejected_by_non_scheme_driven(self):
        A, B = _pair(16)
        with pytest.raises(ValueError, match="not scheme-driven"):
            run_parallel("cannon", A, B, p=16, scheme="strassen")

    def test_unknown_option_rejected(self):
        A, B = _pair(16)
        with pytest.raises(TypeError, match="unexpected option"):
            run_parallel("cannon", A, B, p=16, schedule="BB")
        with pytest.raises(TypeError, match="memory_limt"):
            run_parallel("cannon", A, B, p=16, memory_limt=10)  # typo'd kwarg

    def test_is_valid_predicate(self):
        cannon = get_parallel("cannon")
        assert cannon.is_valid(56, 16)
        assert not cannon.is_valid(56, 15)       # not a square
        assert not cannon.is_valid(10, 9)        # 3 does not divide 10
        caps = get_parallel("caps")
        assert caps.is_valid(56, 49)
        assert not caps.is_valid(8, 7)           # layout divisibility fails

    def test_default_configs_are_valid(self):
        for name in available_parallel():
            algo = get_parallel(name)
            configs = algo.default_configs(56, 64, cs=(1, 2, 4))
            assert configs, f"{name} offers no config at n=56, p<=64"
            for cfg in configs:
                assert cfg["p"] <= 64
                assert algo.is_valid(56, cfg["p"], c=cfg.get("c", 1))


class TestAnalyticCosts:
    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_measured_within_constant_factor(self, name, kwargs):
        A, B = _pair(56)
        r = run_parallel(name, A, B, **kwargs)
        a = r.analytic
        assert a.words > 0
        assert 0.25 <= r.critical_words / a.words <= 4.0
        assert 0.25 <= r.critical_messages / max(a.messages, 1) <= 4.0
        assert 0.25 <= r.max_mem_peak / a.memory <= 4.0

    def test_classical_word_formulas_are_exact(self):
        # the declared formulas are derived from the superstep structure,
        # so for the grid algorithms they are exact, not just Θ-correct
        A, B = _pair(56)
        for name, kwargs in CONFIGS[:4]:
            r = run_parallel(name, A, B, **kwargs)
            assert r.critical_words == r.analytic.words
            assert r.critical_messages == r.analytic.messages

    def test_caps_word_formula_exact_for_schedules(self):
        A, B = _pair(112)
        for sched in ("BB", "DBB", "BDB", "BBD"):
            r = run_parallel("caps", A, B, p=49, schedule=sched)
            assert r.critical_words == r.analytic.words
            assert r.critical_messages == r.analytic.messages

    def test_caps_analytic_rejects_inconsistent_schedule(self):
        caps = get_parallel("caps")
        with pytest.raises(ValueError, match="BFS steps"):
            caps.analytic_costs(56, 7, schedule="BBB")
        with pytest.raises(ValueError, match="BFS steps"):
            caps.analytic_costs(56, 7, schedule="D")
        with pytest.raises(ValueError, match="only 'B'/'D'"):
            caps.analytic_costs(56, 7, schedule="XB")

    def test_analytic_scaling_shapes(self):
        # cannon words = 4n²/√p: quadrupling p halves the words
        c = get_parallel("cannon")
        w1 = c.analytic_costs(64, 16).words
        w2 = c.analytic_costs(64, 64).words
        assert w1 / w2 == pytest.approx(2.0)
        # 2.5d memory grows linearly with c at fixed p
        t = get_parallel("2.5d")
        m1 = t.analytic_costs(64, 64, c=1).memory
        m4 = t.analytic_costs(64, 64, c=4).memory
        assert m4 / m1 == pytest.approx(4.0)


class TestEstimate:
    """estimate(): the planner's pure cost probe."""

    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_estimate_matches_executed_analytic(self, name, kwargs):
        A, B = _pair(56)
        cfg = ParallelConfig(
            n=56, p=kwargs["p"], c=kwargs.get("c", 1),
            scheme="strassen" if name == "caps" else None,
        )
        algo = get_parallel(name)
        est = algo.estimate(cfg)
        r = algo.execute(A, B, cfg)
        assert est.words == r.analytic.words
        assert est.messages == r.analytic.messages
        assert est.memory == r.analytic.memory
        assert est.flops == r.analytic.flops > 0

    @pytest.mark.parametrize("name,kwargs", CONFIGS)
    def test_estimate_within_constant_factor_of_measured(self, name, kwargs):
        # the acceptance contract: predicted costs track execute()-measured
        # counters within the declared constant factor on uniform configs
        A, B = _pair(56)
        cfg = ParallelConfig(
            n=56, p=kwargs["p"], c=kwargs.get("c", 1),
            scheme="strassen" if name == "caps" else None,
        )
        algo = get_parallel(name)
        est = algo.estimate(cfg)
        r = algo.execute(A, B, cfg)
        assert 0.25 <= r.critical_words / est.words <= 4.0
        assert 0.25 <= r.critical_messages / max(est.messages, 1) <= 4.0
        assert 0.25 <= r.max_mem_peak / est.memory <= 4.0

    def test_estimate_validates(self):
        with pytest.raises(ValueError, match="perfect square"):
            get_parallel("cannon").estimate(ParallelConfig(n=56, p=12))
        with pytest.raises(ValueError, match="no replication factor"):
            get_parallel("cannon").estimate(ParallelConfig(n=56, p=16, c=2))
        with pytest.raises(TypeError, match="unexpected option"):
            get_parallel("cannon").estimate(
                ParallelConfig(n=56, p=16, schedule="BB")
            )

    def test_estimate_respects_topology_capacity(self):
        from repro.topology import Topology

        topo = Topology.uniform(p=8)
        with pytest.raises(ValueError, match="exceeds the topology"):
            get_parallel("cannon").estimate(ParallelConfig(n=56, p=16), topo)

    def test_plan_configs_are_valid_configs(self):
        for name in available_parallel():
            algo = get_parallel(name)
            configs = algo.plan_configs(56, 64, cs=(1, 2, 4))
            assert configs, f"{name} offers no plan config at n=56, p<=64"
            for cfg in configs:
                assert isinstance(cfg, ParallelConfig)
                assert cfg.p <= 64
                algo.estimate(cfg)  # must not raise

