"""Tests for edge-expansion machinery (repro.core.expansion) — Lemma 4.3."""

import numpy as np
import pytest

from repro.cdag.build import GraphBuilder
from repro.cdag.graph import CDAG, VertexKind
from repro.cdag.strassen_cdag import dec_graph
from repro.core.exact import exact_edge_expansion_v2
from repro.core.expansion import (
    claim_2_1_small_set_bound,
    decode_cone_mask,
    decode_cone_upper_bound,
    estimate_expansion,
    expansion_of_cut,
    fiedler_sweep_cut,
    spectral_lower_bound,
)


def _exact_edge_expansion_reference(g: CDAG, max_size: int | None = None):
    """The seed implementation (per-edge / per-bit Python loops) — kept as
    the ground truth the vectorized kernel must reproduce exactly."""
    n = g.n_vertices
    limit = n // 2 if max_size is None else min(max_size, n)
    d = g.max_degree
    masks = np.arange(1, 2**n, dtype=np.int64)
    sizes = np.zeros_like(masks)
    work = masks.copy()
    while np.any(work):
        sizes += work & 1
        work >>= 1
    ok = (sizes >= 1) & (sizes <= limit)
    masks = masks[ok]
    sizes = sizes[ok]
    u, v = g.undirected_edges
    boundary = np.zeros(len(masks), dtype=np.int64)
    for a, b in zip(u.tolist(), v.tolist()):
        boundary += ((masks >> a) ^ (masks >> b)) & 1
    ratios = boundary / (d * sizes)
    best = int(np.argmin(ratios))
    best_mask = np.zeros(n, dtype=bool)
    for i in range(n):
        if (int(masks[best]) >> i) & 1:
            best_mask[i] = True
    return float(ratios[best]), best_mask


def _cycle(n: int) -> CDAG:
    b = GraphBuilder()
    vs = b.add_vertices(n, VertexKind.ADD)
    for i in range(n - 1):
        b.add_edge(int(vs[i]), int(vs[i + 1]))
    # close the cycle with consistent direction cut in half to stay acyclic
    b.add_edge(int(vs[0]), int(vs[n - 1]))
    return b.freeze()


class TestExact:
    def test_path_expansion(self, path_graph):
        # a path of 6: best cut is one end-half, boundary 1, d=2
        h, mask = exact_edge_expansion_v2(path_graph)
        assert h == pytest.approx(1 / (2 * 3))
        assert mask.sum() == 3

    def test_exact_matches_cut_evaluation(self, diamond_graph):
        h, mask = exact_edge_expansion_v2(diamond_graph)
        assert h == pytest.approx(expansion_of_cut(diamond_graph, mask))

    def test_small_set_restriction_monotone(self, path_graph):
        # restricting the set size can only increase the minimum ratio
        h_all = exact_edge_expansion_v2(path_graph, max_size=3)[0]
        h_small = exact_edge_expansion_v2(path_graph, max_size=1)[0]
        assert h_small >= h_all

    def test_too_large_graph_rejected(self):
        g = dec_graph("strassen", 3)
        with pytest.raises(ValueError, match="enumeration"):
            exact_edge_expansion_v2(g)

    def test_dec1_exact_value(self):
        # ground truth for Dec1C of Strassen, used by E3's first row
        h, mask = exact_edge_expansion_v2(dec_graph("strassen", 1))
        assert 0 < h < 0.5714
        assert 1 <= mask.sum() <= 5


class TestVectorizedExact:
    """The vectorized enumeration must match the seed's loop implementation
    bit-for-bit (same h, same argmin witness) on every small graph."""

    def test_matches_reference_on_fixtures(self, path_graph, diamond_graph):
        for g in (path_graph, diamond_graph):
            h_new, mask_new = exact_edge_expansion_v2(g)
            h_ref, mask_ref = _exact_edge_expansion_reference(g)
            assert h_new == h_ref
            assert np.array_equal(mask_new, mask_ref)

    @pytest.mark.parametrize("scheme", ["strassen", "winograd"])
    def test_matches_reference_on_dec1(self, scheme):
        g = dec_graph(scheme, 1)
        h_new, mask_new = exact_edge_expansion_v2(g)
        h_ref, mask_ref = _exact_edge_expansion_reference(g)
        assert h_new == h_ref
        assert np.array_equal(mask_new, mask_ref)

    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 13))
            src, dst = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        src.append(i)
                        dst.append(j)
            if not src:
                continue
            g = CDAG(n, np.array(src), np.array(dst), np.zeros(n, dtype=np.int8))
            h_new, mask_new = exact_edge_expansion_v2(g)
            h_ref, mask_ref = _exact_edge_expansion_reference(g)
            assert h_new == h_ref
            assert np.array_equal(mask_new, mask_ref)

    def test_matches_reference_with_max_size(self, path_graph):
        for s in (1, 2, 3):
            h_new, _ = exact_edge_expansion_v2(path_graph, max_size=s)
            h_ref, _ = _exact_edge_expansion_reference(path_graph, max_size=s)
            assert h_new == h_ref


class TestEigsExceptionHandling:
    """_two_smallest_eigs must fall back only on solver failures; real bugs
    (bad shapes, dtypes) propagate instead of being silently swallowed."""

    def _big_laplacian(self):
        # anything > 600 vertices takes the sparse path
        g = dec_graph("strassen", 3)
        from repro.core.expansion import _regularized_laplacian

        L, _ = _regularized_laplacian(g)
        return L

    def test_programming_errors_propagate(self, monkeypatch):
        import scipy.sparse.linalg as spla
        from repro.core.expansion import _two_smallest_eigs

        def boom(*args, **kwargs):
            raise ValueError("bad input shape")

        monkeypatch.setattr(spla, "eigsh", boom)
        with pytest.raises(ValueError, match="bad input shape"):
            _two_smallest_eigs(self._big_laplacian())

    def test_solver_failure_falls_back(self, monkeypatch):
        import scipy.sparse.linalg as spla
        from repro.core.expansion import _two_smallest_eigs

        real_eigsh = spla.eigsh
        calls = []

        def flaky(L, *args, **kwargs):
            calls.append(kwargs)
            if "sigma" in kwargs:
                raise RuntimeError("Factor is exactly singular")
            return real_eigsh(L, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", flaky)
        w, V = _two_smallest_eigs(self._big_laplacian())
        assert len(calls) == 2  # shift-invert failed, plain Lanczos ran
        assert w[0] <= w[1]
        assert V.shape[1] == 2

    def test_singular_factorization_falls_back(self, monkeypatch):
        import scipy.sparse.linalg as spla
        from repro.core.expansion import _two_smallest_eigs

        real_eigsh = spla.eigsh
        calls = []

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        def recording(L, *args, **kwargs):
            calls.append(kwargs)
            return real_eigsh(L, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", singular)
        monkeypatch.setattr(spla, "eigsh", recording)
        w, V = _two_smallest_eigs(self._big_laplacian())
        # the factorization failed before any shift-invert iteration ran
        assert [c.get("which") for c in calls] == ["SA"]
        assert w[0] <= w[1]
        assert V.shape[1] == 2

    def test_factorization_programming_errors_propagate(self, monkeypatch):
        import scipy.sparse.linalg as spla
        from repro.core.expansion import _two_smallest_eigs

        def boom(*args, **kwargs):
            raise ValueError("matrix must be square")

        monkeypatch.setattr(spla, "splu", boom)
        with pytest.raises(ValueError, match="must be square"):
            _two_smallest_eigs(self._big_laplacian())


class TestShiftInvertOrdering:
    """The sparse eigensolve factors ``L − σI`` itself: COLAMD below
    ``NATURAL_ORDER_MIN_VERTICES`` (bit-identical to ``eigsh(sigma=...)``),
    the CDAG's level order above it."""

    @pytest.mark.parametrize("scheme,k", [("strassen", 3), ("winograd", 4)])
    def test_below_gate_bit_identical_to_eigsh(self, scheme, k):
        import scipy.sparse.linalg as spla
        from repro.core.expansion import (
            NATURAL_ORDER_MIN_VERTICES,
            _regularized_laplacian,
            _two_smallest_eigs,
        )

        L, _ = _regularized_laplacian(dec_graph(scheme, k))
        n = L.shape[0]
        assert 600 < n <= NATURAL_ORDER_MIN_VERTICES
        v0 = np.random.default_rng(0x5EED).standard_normal(n)
        w_ref, V_ref = spla.eigsh(L, k=2, sigma=-1e-8, which="LM", maxiter=5000, v0=v0)
        order = np.argsort(w_ref)
        w, V = _two_smallest_eigs(L)
        assert np.array_equal(w, w_ref[order])
        assert np.array_equal(V, V_ref[:, order])

    def test_dec5_level_order_matches_reference(self):
        # The values perfbench/reference.json commits for strassen Dec_5.
        from repro.core.expansion import NATURAL_ORDER_MIN_VERTICES

        g = dec_graph("strassen", 5)
        assert g.n_vertices > NATURAL_ORDER_MIN_VERTICES
        lower, fiedler = spectral_lower_bound(g)
        upper, mask = fiedler_sweep_cut(g, fiedler)
        assert lower == pytest.approx(0.0017077561776256392, rel=1e-9)
        assert upper == pytest.approx(0.007980547415674295, rel=1e-9)
        assert upper == expansion_of_cut(g, mask)


class TestCutEvaluation:
    def test_empty_cut_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="nonempty"):
            expansion_of_cut(diamond_graph, np.zeros(5, dtype=bool))

    def test_oversized_cut_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="smaller side"):
            expansion_of_cut(diamond_graph, np.ones(5, dtype=bool))

    def test_known_cut_value(self, diamond_graph):
        mask = np.zeros(5, dtype=bool)
        mask[0] = True  # boundary 2, d = 3
        assert expansion_of_cut(diamond_graph, mask) == pytest.approx(2 / 3)


class TestSpectral:
    @pytest.mark.parametrize("k", [2, 3])
    def test_cheeger_sandwich(self, k):
        g = dec_graph("strassen", k)
        lower, fiedler = spectral_lower_bound(g)
        upper, mask = fiedler_sweep_cut(g, fiedler)
        assert 0 < lower <= upper
        # Cheeger: upper cut is a real cut, so h <= upper; lower <= h
        assert lower <= expansion_of_cut(g, mask) + 1e-12

    def test_sweep_cut_is_certified(self):
        g = dec_graph("strassen", 3)
        upper, mask = fiedler_sweep_cut(g)
        assert upper == pytest.approx(expansion_of_cut(g, mask))
        assert 1 <= mask.sum() <= g.n_vertices // 2

    def test_lower_below_exact_on_tiny(self):
        g = dec_graph("strassen", 1)
        h, _ = exact_edge_expansion_v2(g)
        lower, _ = spectral_lower_bound(g)
        assert lower <= h + 1e-9


class TestDecodeCones:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cone_gives_lemma_43_shape(self, k):
        g = dec_graph("strassen", k)
        ratio, mask = decode_cone_upper_bound(g, "strassen", k)
        assert ratio <= 0.35 * (4 / 7) ** (k - 1)

    def test_cone_mask_size(self):
        # full-depth cone of one branch: (7^k - 4^k)/3 vertices
        k = 3
        mask = decode_cone_mask("strassen", k, branch=0)
        assert mask.sum() == (7**3 - 4**3) // 3

    def test_cone_depth_restriction(self):
        m1 = decode_cone_mask("strassen", 3, branch=0, depth=1)
        m2 = decode_cone_mask("strassen", 3, branch=0, depth=2)
        assert m1.sum() < m2.sum()
        assert np.all(m2[m1])  # nested

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError):
            decode_cone_mask("strassen", 3, branch=9)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            decode_cone_mask("strassen", 3, branch=0, depth=5)

    def test_cone_boundary_is_only_top_frontier(self):
        # the cone's whole boundary is the branch's output edges into the
        # final combine: nnz(column) * 4^(k-1) for the chosen branch
        k, branch = 3, 6  # Strassen column M7 has nnz 1
        from repro.cdag.schemes import get_scheme

        s = get_scheme("strassen")
        g = dec_graph(s, k)
        mask = decode_cone_mask(s, k, branch=branch)
        nnz_col = int((s.W[:, branch] != 0).sum())
        assert g.edge_boundary_size(mask) == nnz_col * 4 ** (k - 1)


class TestEstimator:
    def test_tiny_graph_exact_path(self, diamond_graph):
        est = estimate_expansion(diamond_graph)
        assert est.method == "exact"
        assert est.lower == est.upper

    def test_dec_estimate_ordering(self):
        g = dec_graph("strassen", 3)
        est = estimate_expansion(g, "strassen", 3)
        assert est.lower <= est.upper
        assert est.witness_size >= 1
        assert est.witness_boundary >= 1

    def test_dec3_spectral_values(self):
        est = estimate_expansion(dec_graph("strassen", 3), "strassen", 3, policy="spectral")
        assert est.method == "spectral+sweep"
        assert (est.lower, est.upper) == pytest.approx(
            (0.006898531878696219, 0.026755852842809364), rel=1e-4
        )
        assert est.witness_size == 299

    def test_decay_with_k(self):
        uppers = []
        for k in (2, 3, 4):
            g = dec_graph("strassen", k)
            est = estimate_expansion(g, "strassen", k)
            uppers.append(est.upper)
        assert uppers[0] > uppers[1] > uppers[2]
        # geometric decay ratio approaches 4/7 from below
        assert 0.4 < uppers[2] / uppers[1] < 0.75


class TestClaim21:
    def test_bound_formula(self):
        assert claim_2_1_small_set_bound(0.15, 4, 6) == pytest.approx(0.1)

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            claim_2_1_small_set_bound(0.1, 8, 6)

    def test_decomposition_soundness_on_dec(self):
        # h_s of Dec_3 for s <= |Dec_1|/2 is at least h(Dec_1) * d'/d
        g_small = dec_graph("strassen", 1)
        g_big = dec_graph("strassen", 3)
        h_small, _ = exact_edge_expansion_v2(g_small)
        bound = claim_2_1_small_set_bound(h_small, g_small.max_degree, g_big.max_degree)
        # verify on every singleton + the known small sets (exact h_s is
        # infeasible; we check the bound against sampled small cuts)
        rng = np.random.default_rng(7)
        for _ in range(50):
            size = rng.integers(1, g_small.n_vertices // 2 + 1)
            idx = rng.choice(g_big.n_vertices, size=size, replace=False)
            mask = np.zeros(g_big.n_vertices, dtype=bool)
            mask[idx] = True
            assert expansion_of_cut(g_big, mask) >= bound - 1e-12
