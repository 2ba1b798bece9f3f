"""Tests for the recursive CDAG construction (§4.1.1) across schemes."""

import numpy as np
import pytest

from repro.cdag.analysis import layer_profile
from repro.cdag.graph import VertexKind
from repro.cdag.schemes import get_scheme
from repro.cdag.strassen_cdag import (
    dec1_graph,
    dec_graph,
    dec_level_sizes,
    dec_vertex_count,
    enc_graph,
    h_graph,
    recursion_tree_partition,
)

KS = [1, 2, 3]


class TestDecGraph:
    @pytest.mark.parametrize("k", KS)
    def test_strassen_vertex_counts(self, k):
        # |V| = sum 4^t 7^(k-t) — 11, 93, 715 for k = 1, 2, 3
        expected = {1: 11, 2: 93, 3: 715}[k]
        assert dec_graph("strassen", k).n_vertices == expected

    @pytest.mark.parametrize("k", KS)
    def test_level_sizes_fact_4_6(self, small_scheme, k):
        g = dec_graph(small_scheme, k)
        prof = layer_profile(g)
        assert np.array_equal(prof.level_sizes, dec_level_sizes(small_scheme, k))

    @pytest.mark.parametrize("k", KS)
    def test_edge_count_is_nnz_scaled(self, small_scheme, k):
        # between levels t, t+1 there are nnz(W) edges per Dec1C copy
        g = dec_graph(small_scheme, k)
        nnz = int((small_scheme.W != 0).sum())
        c0, t0 = small_scheme.c_blocks, small_scheme.t0
        expected = sum(nnz * c0**t * t0 ** (k - t - 1) for t in range(k))
        assert g.n_edges == expected

    def test_dec5_and_h5_sizes(self):
        # the largest Strassen CDAGs the paper's figures use, built cold
        g = dec_graph("strassen", 5)
        hg = h_graph("strassen", 5)
        assert (g.n_vertices, g.n_edges) == (37851, 63132)
        assert (hg.cdag.n_vertices, hg.cdag.n_edges) == (92509, 201966)

    def test_dec0_is_single_level(self):
        g = dec_graph("strassen", 0)
        assert g.n_vertices == 1
        assert g.n_edges == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            dec_graph("strassen", -1)

    @pytest.mark.parametrize("k", KS)
    def test_degree_bound_fact_4_2(self, k):
        # Strassen: out-degree <= 4, in-degree <= 2 wrt Dec1, total <= 6
        g = dec_graph("strassen", k)
        assert g.max_degree <= 6

    @pytest.mark.parametrize("k", KS)
    def test_strassen_dec_connected(self, k):
        assert dec_graph("strassen", k).is_connected_undirected()

    def test_classical_dec1_disconnected(self):
        assert not dec1_graph("classical2").is_connected_undirected()

    def test_winograd_dec1_connected(self):
        assert dec1_graph("winograd").is_connected_undirected()

    @pytest.mark.parametrize("k", KS)
    def test_kinds_by_level(self, k):
        g = dec_graph("strassen", k)
        assert np.all(g.kinds[g.levels == 0] == VertexKind.MULT)
        assert np.all(g.kinds[g.levels == k] == VertexKind.OUTPUT)
        if k > 1:
            assert np.all(g.kinds[(g.levels > 0) & (g.levels < k)] == VertexKind.ADD)

    def test_vertex_count_helper(self, small_scheme):
        for k in KS:
            assert dec_vertex_count(small_scheme, k) == dec_graph(small_scheme, k).n_vertices

    def test_expand_trees_restores_binary(self):
        g = dec_graph("strassen", 2, expand_trees=True)
        assert g.validate_binary_ops()

    def test_expand_trees_preserves_io_counts(self):
        g0 = dec_graph("strassen", 2)
        g1 = dec_graph("strassen", 2, expand_trees=True)
        assert len(g1.inputs) == len(g0.inputs)
        assert len(g1.outputs) == len(g0.outputs)

    def test_expand_trees_keeps_connectivity(self):
        assert dec_graph("strassen", 2, expand_trees=True).is_connected_undirected()

    def test_dec_is_dag(self, small_scheme):
        g = dec_graph(small_scheme, 2)
        _ = g.topological_order  # raises on cycles


class TestEncGraph:
    @pytest.mark.parametrize("k", KS)
    def test_enc_input_count(self, small_scheme, k):
        g = enc_graph(small_scheme, k, side="A")
        # inputs are exactly a_blocks^k (aliased forms are not new inputs)
        assert np.count_nonzero(g.kinds == VertexKind.INPUT) == small_scheme.a_blocks**k

    def test_enc_output_forms_count_strassen(self):
        # Enc_1 A for Strassen: 4 inputs + 5 non-identity forms = 9 vertices
        g = enc_graph("strassen", 1, side="A")
        assert g.n_vertices == 9

    def test_enc_b_side_uses_v(self):
        # winograd U and V both have 3 forwarding rows (8 vertices each),
        # but their edge multisets differ; strassen U has only 2 forwards.
        ga = enc_graph("winograd", 1, side="A")
        gb = enc_graph("winograd", 1, side="B")
        assert ga.n_vertices == gb.n_vertices == 8
        ea = sorted(zip(ga.src.tolist(), ga.dst.tolist()))
        eb = sorted(zip(gb.src.tolist(), gb.dst.tolist()))
        assert ea != eb
        assert enc_graph("strassen", 1, side="A").n_vertices == 9

    def test_enc_outdegree_grows_with_k(self):
        degs = []
        for k in (1, 2, 3):
            H = h_graph("strassen", k)
            degs.append(int(H.cdag.out_degree[H.a_inputs].max()))
        assert degs[0] < degs[1] < degs[2]  # the Θ(lg n) growth (§4.1)


class TestHGraph:
    @pytest.mark.parametrize("k", [1, 2])
    def test_h_structure_counts(self, small_scheme, k):
        H = h_graph(small_scheme, k)
        assert len(H.a_inputs) == small_scheme.a_blocks**k
        assert len(H.b_inputs) == small_scheme.b_blocks**k
        assert len(H.mult_ids) == small_scheme.t0**k
        assert len(H.output_ids) == small_scheme.c_blocks**k

    def test_mult_vertices_have_two_encoder_inputs(self):
        H = h_graph("strassen", 2)
        indeg = H.cdag.in_degree[H.mult_ids]
        assert np.all(indeg == 2)

    def test_dec_fraction_at_least_one_third(self):
        # §4.1: at least one third of H's vertices lie in Dec C
        for k in (2, 3, 4):
            H = h_graph("strassen", k)
            assert H.dec_fraction >= 1 / 3

    def test_outputs_are_graph_sinks(self):
        H = h_graph("strassen", 2)
        assert np.all(H.cdag.out_degree[H.output_ids] == 0)

    def test_inputs_are_graph_sources(self):
        H = h_graph("strassen", 2)
        assert np.all(H.cdag.in_degree[H.a_inputs] == 0)
        assert np.all(H.cdag.in_degree[H.b_inputs] == 0)

    def test_dec_subgraph_isomorphic_size(self):
        H = h_graph("strassen", 3)
        sub = H.dec_subgraph()
        assert sub.n_vertices == dec_graph("strassen", 3).n_vertices
        assert sub.n_edges == dec_graph("strassen", 3).n_edges

    def test_h_is_dag(self):
        _ = h_graph("strassen", 2).cdag.topological_order

    def test_h_connected(self):
        assert h_graph("strassen", 2).cdag.is_connected_undirected()


class TestRectangularCdag:
    """Rectangular schemes flow through the same recursive construction."""

    @pytest.mark.parametrize("name", ["classical122", "classical221", "strassen122"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_level_sizes(self, name, k):
        s = get_scheme(name)
        g = dec_graph(s, k)
        sizes = dec_level_sizes(s, k)
        assert g.n_vertices == int(sizes.sum())
        assert sizes[0] == s.t0**k
        assert sizes[-1] == s.c_blocks**k

    @pytest.mark.parametrize("name", ["classical122", "strassen122"])
    def test_h_structure(self, name):
        s = get_scheme(name)
        H = h_graph(s, 2)
        assert len(H.a_inputs) == s.a_blocks**2
        assert len(H.b_inputs) == s.b_blocks**2
        assert len(H.mult_ids) == s.t0**2
        assert len(H.output_ids) == s.c_blocks**2
        _ = H.cdag.topological_order  # raises on cycles

    @pytest.mark.parametrize("name", ["classical122", "classical212", "strassen122"])
    def test_recursion_tree_partitions(self, name):
        s = get_scheme(name)
        tree = recursion_tree_partition(s, 2)
        g = dec_graph(s, 2)
        ids = np.concatenate([lvl.ravel() for lvl in tree])
        assert len(ids) == g.n_vertices
        assert len(np.unique(ids)) == g.n_vertices


class TestRecursionTree:
    @pytest.mark.parametrize("k", KS)
    def test_partition_covers_exactly(self, small_scheme, k):
        tree = recursion_tree_partition(small_scheme, k)
        g = dec_graph(small_scheme, k)
        ids = np.concatenate([lvl.ravel() for lvl in tree])
        assert len(ids) == g.n_vertices
        assert len(np.unique(ids)) == g.n_vertices

    def test_tree_level_shapes(self):
        tree = recursion_tree_partition("strassen", 3)
        # bottom level: 4^3 leaves of size 1; root: 1 node of size 7^3
        assert tree[0].shape == (64, 1)
        assert tree[-1].shape == (1, 343)

    def test_tree_levels_match_graph_levels(self):
        g = dec_graph("strassen", 3)
        tree = recursion_tree_partition("strassen", 3)
        for i, lvl in enumerate(tree, start=1):
            t = 3 - i + 1
            assert np.all(g.levels[lvl.ravel()] == t)
