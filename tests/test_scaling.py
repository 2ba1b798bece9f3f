"""Tests for the strong-scaling subsystem: engine sweep, cache, experiment.

Covers the acceptance criteria of the scaling refactor: every registered
algorithm runs across a p-grid, measured critical-path words sit within a
constant factor of the declared analytic cost and never below
``max(memory-dependent, memory-independent)``, the sweep is warm-cacheable,
and the strong-scaling floor crossover is pinned for one (n, M) pair.
"""


import pytest

from repro.core.bounds import LG7, perfect_scaling_limit, scaling_regime
from repro.engine.cache import EngineCache
from repro.engine.scaling import (
    ScalingPoint,
    ScalingSpec,
    evaluate_scaling_point,
    scaling_sweep,
)
from repro.experiments.strong_scaling import strong_scaling_experiment
from repro.parallel import available_parallel


@pytest.fixture(scope="module")
def sweep_report():
    cache = EngineCache(disk=False)
    spec = ScalingSpec(algos=tuple(available_parallel()), n=56, p_max=64)
    return scaling_sweep(spec, cache=cache)


class TestSweep:
    def test_every_algorithm_appears(self, sweep_report):
        ran = {row["algorithm"] for row in sweep_report.rows}
        assert ran == set(available_parallel())

    def test_all_runs_verified(self, sweep_report):
        assert all(row["verified"] for row in sweep_report.rows)

    def test_measured_within_constant_factor_of_analytic(self, sweep_report):
        for row in sweep_report.rows:
            ratio = row["measured/analytic"]
            assert 0.25 <= ratio <= 4.0, (row["label"], row["p"], ratio)

    def test_measured_never_below_lower_bound(self, sweep_report):
        # the acceptance invariant, explicitly including the three headline
        # algorithms: classical 2D (cannon), 2.5D, and CAPS
        seen = set()
        for row in sweep_report.rows:
            assert row["lower_bound"] == max(
                row["memory_dependent_bound"], row["memory_independent_bound"]
            )
            assert row["measured_words"] >= row["lower_bound"], (
                row["label"],
                row["p"],
                row["measured_words"],
                row["lower_bound"],
            )
            seen.add(row["algorithm"])
        assert {"cannon", "2.5d", "caps"} <= seen

    def test_strassen_floor_shallower_than_classical(self, sweep_report):
        # at equal p = 49 the CAPS memory-independent floor (ω₀ = lg 7)
        # sits above the classical one — and CAPS still clears it
        caps = next(r for r in sweep_report.rows if r["algorithm"] == "caps" and r["p"] == 49)
        cannon = next(r for r in sweep_report.rows if r["algorithm"] == "cannon" and r["p"] == 49)
        assert caps["memory_independent_bound"] < cannon["memory_independent_bound"]
        assert caps["measured_words"] < cannon["measured_words"]

    def test_omega0_per_class(self, sweep_report):
        for row in sweep_report.rows:
            if row["class"] == "classical":
                assert row["omega0"] == 3.0
            else:
                assert row["omega0"] == pytest.approx(LG7)

    def test_rows_deterministic_order(self, sweep_report):
        cache = EngineCache(disk=False)
        spec = ScalingSpec(algos=tuple(available_parallel()), n=56, p_max=64)
        again = scaling_sweep(spec, cache=cache)
        assert [r["label"] for r in again.rows] == [r["label"] for r in sweep_report.rows]


def test_small_sweep_totals():
    spec = ScalingSpec(algos=tuple(available_parallel()), n=56, p_max=16, cs=(1, 2))
    report = scaling_sweep(spec, cache=EngineCache(disk=False))
    assert len(report.rows) == 9
    assert sum(r["measured_words"] for r in report.rows) == 38528
    assert all(r["verified"] for r in report.rows)


class TestSweepCache:
    def test_warm_rerun_builds_nothing(self, tmp_path):
        cache = EngineCache(tmp_path / "cache")
        spec = ScalingSpec(algos=("cannon", "caps"), n=56, p_max=49)
        cold = scaling_sweep(spec, cache=cache)
        assert cold.stats["builds"] == len(cold.rows)
        warm = scaling_sweep(spec, cache=cache)
        assert warm.stats["builds"] == 0
        assert warm.rows == cold.rows

    def test_disk_roundtrip_across_instances(self, tmp_path):
        spec = ScalingSpec(algos=("2.5d",), n=24, p_max=32, cs=(1, 2))
        first = scaling_sweep(spec, cache=EngineCache(tmp_path / "c"))
        second = scaling_sweep(spec, cache=EngineCache(tmp_path / "c"))
        assert second.stats["builds"] == 0
        assert second.rows == first.rows

    def test_alpha_beta_sweeps_reuse_the_simulation(self, tmp_path):
        # the cached artifact carries per-superstep per-rank tallies, so a
        # different (α, β) recomputes time without simulating again
        cache = EngineCache(tmp_path / "c")
        a = evaluate_scaling_point(ScalingPoint("cannon", 24, 16), cache=cache, beta=1.0)
        b = evaluate_scaling_point(ScalingPoint("cannon", 24, 16), cache=cache, beta=2.0)
        assert cache.stats.builds == 1
        assert b["time"] > a["time"]
        assert b["measured_words"] == a["measured_words"]

    def test_cached_time_matches_machine_time(self, tmp_path):
        from repro.parallel import run_parallel
        from repro.topology import Topology
        from repro.util.matgen import integer_matrix

        cache = EngineCache(disk=False)
        row = evaluate_scaling_point(
            ScalingPoint("caps", 56, 49), cache=cache, alpha=3.0, beta=0.25
        )
        A = integer_matrix(56, seed=11)
        B = integer_matrix(56, seed=13)
        r = run_parallel("caps", A, B, p=49)
        log = r.machine.log
        assert row["time"] == Topology.uniform(3.0, 0.25).time_from_steps(
            log.step_msgs, log.step_words
        )

    def test_json_is_strict(self, sweep_report):
        import json

        def reject(token):
            raise ValueError(f"non-strict constant {token}")

        parsed = json.loads(sweep_report.to_json(), parse_constant=reject)
        assert len(parsed["rows"]) == len(sweep_report.rows)


class TestFloorCrossoverPin:
    """Pins the strong-scaling floor crossover for (n, M) = (64, 256)."""

    N, M = 64, 256

    def test_crossover_point_exact(self):
        # classical p* = n³/M^(3/2) = 64³/4096 = 64, exactly
        assert perfect_scaling_limit(self.N, self.M, 3.0) == pytest.approx(64.0)

    def test_bounds_flip_across_the_floor(self):
        below = scaling_regime(self.N, 16, self.M, 3.0)
        above = scaling_regime(self.N, 256, self.M, 3.0)
        assert below.binding == "memory-dependent"
        assert above.binding == "memory-independent"
        assert below.p_limit == above.p_limit == pytest.approx(64.0)

    def test_experiment_shows_crossover(self):
        cache = EngineCache(disk=False)
        result = strong_scaling_experiment(
            n=self.N, M=self.M, p_max=256, cs=(1, 2, 4), cache=cache
        )
        assert result["p_limit"]["classical"] == pytest.approx(64.0)
        # the Strassen-like range ends earlier (ω₀ < 3)
        assert result["p_limit"]["strassen-like"] < 64.0
        classical = [r for r in result["rows"] if r["class"] == "classical"]
        below = [r for r in classical if r["p"] < 64]
        above = [r for r in classical if r["p"] > 64]
        assert below and above, "p-grid must straddle the floor"
        assert all(r["binding"] == "memory-dependent" for r in below)
        assert all(r["binding"] == "memory-independent" for r in above)
        assert all(r["beyond_floor"] for r in above)
        assert not any(r["beyond_floor"] for r in below)
        # the memory-independent floor binds every run; the fixed-M bound
        # only binds runs that actually stayed within M (bound_applies)
        assert all(r["measured_words"] >= r["bound_mi"] for r in result["rows"])
        assert all(
            r["measured_words"] >= r["lower_bound"]
            for r in result["rows"]
            if r["bound_applies"]
        )
        assert all(r["verified"] for r in result["rows"])

    def test_unlimited_runs_marked_inapplicable_at_tiny_M(self):
        # with M far below what the (unlimited) runs used, the fixed-M
        # bound rows must be flagged rather than presented as violated
        cache = EngineCache(disk=False)
        result = strong_scaling_experiment(n=64, M=16, p_max=64, cache=cache)
        assert all(not r["bound_applies"] for r in result["rows"])
        assert all(r["mem_peak"] > 16 for r in result["rows"])


class TestSpecGeometry:
    def test_points_respect_p_max(self):
        spec = ScalingSpec(algos=tuple(available_parallel()), n=56, p_max=16)
        assert all(pt.p <= 16 for pt in spec.points())

    def test_caps_points_are_rank_powers(self):
        spec = ScalingSpec(algos=("caps",), n=56, p_max=64)
        assert [pt.p for pt in spec.points()] == [7, 49]

    def test_invalid_algo_name_raises(self):
        spec = ScalingSpec(algos=("nonsense",), n=56, p_max=16)
        with pytest.raises(KeyError, match="unknown parallel algorithm"):
            spec.points()
