"""Tests for utilities, schedules, classical CDAGs, dominators, experiments."""

import numpy as np
import pytest

from repro.cdag.classical_cdag import classical_matmul_cdag, matvec_cdag
from repro.cdag.schedule import (
    bfs_topological_order,
    dfs_topological_order,
    is_topological,
)
from repro.core.bounds import LG7, table1_cell
from repro.core.dominator import minimum_dominator_size
from repro.experiments.report import format_value, render_table
from repro.util.matgen import hilbert_like, integer_matrix, random_matrix, structured_matrix
from repro.util.numutil import (
    fit_power_law,
    ilog,
    is_power_of,
    next_power_of,
    relative_error,
)


class TestNumUtil:
    def test_is_power_of(self):
        assert is_power_of(49, 7)
        assert is_power_of(1, 2)
        assert not is_power_of(48, 7)
        assert not is_power_of(0, 2)

    def test_ilog_exact(self):
        assert ilog(7**9, 7) == 9
        assert ilog(1, 5) == 0

    def test_ilog_rejects_non_powers(self):
        with pytest.raises(ValueError):
            ilog(50, 7)
        with pytest.raises(ValueError):
            ilog(0, 2)

    def test_next_power_of(self):
        assert next_power_of(50, 7) == 343
        assert next_power_of(1, 2) == 1

    def test_relative_error(self):
        assert relative_error(11, 10) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0

    def test_fit_power_law_recovers(self):
        xs = [2, 4, 8, 16]
        ys = [3 * x**2.5 for x in xs]
        e, c = fit_power_law(xs, ys)
        assert e == pytest.approx(2.5)
        assert c == pytest.approx(3.0)

    def test_fit_power_law_validates(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, -2], [1, 2])


class TestMatGen:
    def test_random_deterministic(self):
        assert np.array_equal(random_matrix(8, seed=1), random_matrix(8, seed=1))

    def test_integer_products_exact(self):
        A = integer_matrix(8, seed=1)
        assert np.array_equal(A, np.round(A))

    def test_structured_kinds(self):
        assert structured_matrix(4, kind="index")[1, 2] == 6.0
        assert np.array_equal(structured_matrix(3, kind="identity"), np.eye(3))
        with pytest.raises(ValueError):
            structured_matrix(4, kind="nope")
        with pytest.raises(ValueError):
            structured_matrix(3, 4, kind="identity")

    def test_hilbert_values(self):
        H = hilbert_like(3)
        assert H[0, 0] == 1.0
        assert H[2, 2] == pytest.approx(1 / 5)


class TestClassicalCDAG:
    def test_vertex_count(self):
        # n=2: 8 inputs + 8 mults + 4 adds (chains of 2 products: 1 add each)
        g = classical_matmul_cdag(2)
        assert g.n_vertices == 20

    def test_chain_vs_tree_same_size(self):
        gc = classical_matmul_cdag(4, reduction="chain")
        gt = classical_matmul_cdag(4, reduction="tree")
        assert gc.n_vertices == gt.n_vertices

    def test_tree_reduces_depth(self):
        gc = classical_matmul_cdag(8, reduction="chain")
        gt = classical_matmul_cdag(8, reduction="tree")
        assert gt.longest_path_level.max() < gc.longest_path_level.max()

    def test_outputs_count(self):
        g = classical_matmul_cdag(3)
        assert len(g.outputs) == 9

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            classical_matmul_cdag(0)
        with pytest.raises(ValueError):
            classical_matmul_cdag(2, reduction="magic")

    def test_matvec_structure(self):
        g = matvec_cdag(3)
        assert len(g.inputs) == 12
        assert len(g.outputs) == 3

    def test_binary_ops(self):
        assert classical_matmul_cdag(3).validate_binary_ops()
        assert matvec_cdag(3).validate_binary_ops()


class TestSchedules:
    def test_dfs_order_on_classical(self):
        g = classical_matmul_cdag(3)
        assert is_topological(g, dfs_topological_order(g))

    def test_bfs_order_on_classical(self):
        g = classical_matmul_cdag(3)
        assert is_topological(g, bfs_topological_order(g))

    def test_is_topological_rejects_permutation_gaps(self, diamond_graph):
        assert not is_topological(diamond_graph, np.array([0, 0, 1, 2, 3]))

    def test_is_topological_rejects_backward_edge(self, diamond_graph):
        assert not is_topological(diamond_graph, np.array([4, 3, 2, 1, 0]))


class TestDominator:
    def test_diamond_dominator(self, diamond_graph):
        # both inputs dominate the output; min dominator cuts 2 vertices
        # (the output itself is a 1-vertex dominator!)
        d = minimum_dominator_size(diamond_graph, np.array([4]))
        assert d == 1

    def test_wide_targets_need_wide_dominators(self):
        g = classical_matmul_cdag(2)
        d = minimum_dominator_size(g, g.outputs)
        assert d >= 4  # 4 outputs, disjoint support beyond shared inputs

    def test_no_sources_means_zero(self, diamond_graph):
        d = minimum_dominator_size(diamond_graph, np.array([4]), sources=np.array([], dtype=int))
        assert d == 0

    def test_empty_targets(self, diamond_graph):
        assert minimum_dominator_size(diamond_graph, np.array([], dtype=int)) == 0


class TestReport:
    def test_render_basic(self):
        txt = render_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], title="T")
        assert "T" in txt and "a" in txt and "10" in txt

    def test_render_empty(self):
        assert "empty" in render_table([])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value(0.5) == "0.5"
        assert format_value("x") == "x"

    def test_column_selection(self):
        txt = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in txt.splitlines()[0]


class TestExperimentsSmoke:
    """Each experiment driver runs and returns well-formed rows (small sizes)."""

    def test_seq_io_n_sweep(self):
        from repro.experiments.seq_io import n_sweep

        r = n_sweep(M=192, t_range=range(3, 6), simulate_upto=64)
        assert len(r["rows"]) == 3
        assert abs(r["fit_exponent"] - r["expected_exponent"]) < 0.45

    def test_expansion_decay_shape(self):
        from repro.experiments.expansion_exp import expansion_decay

        r = expansion_decay(k_max=3, spectral_upto=3)
        uppers = [row["upper"] for row in r["rows"]]
        assert uppers == sorted(uppers, reverse=True)

    def test_structure_reports(self):
        from repro.experiments.structure_exp import (
            dec1_connectivity_table,
            figure2_report,
            figure3_tree_report,
        )

        assert figure2_report("strassen", 2)["deck"]["V"] == 93
        assert figure3_tree_report("strassen", 2)["partition_ok"]
        rows = dec1_connectivity_table()
        assert any(r["dec1_connected"] for r in rows)
        assert any(not r["dec1_connected"] for r in rows)

    def test_structure_reports_at_k4(self):
        from repro.engine.cache import EngineCache
        from repro.experiments.structure_exp import (
            dec1_connectivity_table,
            figure2_report,
            figure3_tree_report,
        )

        cache = EngineCache(disk=False)
        fig2 = figure2_report("strassen", 4, cache=cache)
        assert fig2["dec1"]["V"] == 11
        assert fig2["deck"]["max_degree"] == 6
        assert fig2["hk"]["n_mults"] == 2401
        assert figure3_tree_report("strassen", 4, cache=cache)["partition_ok"] is True
        connected = {r["scheme"]: r["dec1_connected"] for r in dec1_connectivity_table(cache)}
        assert connected == {
            "classical122": False,
            "classical2": False,
            "classical212": False,
            "classical221": False,
            "classical3": False,
            "hybrid4": False,
            "strassen": True,
            "strassen122": False,
            "strassen2x": True,
            "winograd": True,
        }

    def test_table1_summary_rows(self):
        from repro.experiments.table1 import table1_summary

        rows = table1_summary(n=32)
        assert len(rows) == 6
        assert all(row["measured_words"] > 0 for row in rows)

    def test_latency_rows(self):
        from repro.experiments.latency_exp import sequential_latency

        r = sequential_latency(M=768, ns=(128, 256))
        for row in r["rows"]:
            assert row["measured_messages"] >= row["latency_bound"]

    def test_latency_message_counts(self):
        from repro.experiments.latency_exp import parallel_latency, sequential_latency

        seq = sequential_latency("strassen", M=768, ns=(128, 256, 512))
        assert [r["measured_messages"] for r in seq["rows"]] == [6765, 51083, 372455]
        par = parallel_latency(n=64)
        assert [r["measured_messages"] for r in par["rows"]] == [8, 16, 32, 36, 252]

    def test_two5d_c_sweep_words(self):
        from repro.experiments.table1 import two5d_c_sweep

        rows = two5d_c_sweep(n=64, q=8, cs=(1, 2, 4))["rows"]
        assert [r["measured_words"] for r in rows] == [2048, 1216, 896]
        assert [r["M_regime"] for r in rows] == [64.0, 64.0, 64.0]
        assert all(r["verified"] for r in rows)

    @pytest.mark.parametrize("omega0", [2.1, 2.5, LG7, 3.0])
    @pytest.mark.parametrize("regime", ["2D", "3D", "2.5D"])
    def test_table1_numerator_is_omega_free(self, regime, omega0):
        # §6.1: only p's power depends on ω₀; the numerator is n² throughout
        n, p, c = 256, 64, 2
        cell = table1_cell(regime, "strassen-like", n, p, c, omega0=omega0)
        c_part = c ** (omega0 / 2 - 1) if regime == "2.5D" else 1.0
        numerator = cell.bound * p**cell.exponent_of_p * c_part
        assert numerator == pytest.approx(65536.0, rel=1e-12)
