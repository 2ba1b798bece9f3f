"""Tests for the exact-expansion engine v2 (repro.core.exact).

The seed brute-force enumerator is kept *here* as the ground-truth oracle:
every v2 kernel (vectorized bitset scan, size-restricted combinatorial
walk, process-parallel sharding) must reproduce its results bit-for-bit —
the same ``h`` float and the same (smallest) witness mask.  A scalar Gray
walk (:func:`_gray_scan_py`) is a second, independently coded oracle.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdag.build import GraphBuilder, layered_circulant_cdag
from repro.cdag.classical_cdag import classical_matmul_cdag
from repro.cdag.graph import CDAG, VertexKind
from repro.cdag.strassen_cdag import dec1_graph, dec_graph
from repro.core import exact as exact_mod
from repro.core.exact import (
    DEFAULT_EXACT_LIMIT,
    _bounded_walk_py,
    _full_scan,
    _ints_from_rows,
    _mask_to_bool,
    _n_prefixes,
    _native_scan_span,
    _scan_span,
    _search_ctx,
    effective_exact_limit,
    exact_edge_expansion_v2,
    native_backend_available,
)
from repro.core.expansion import estimate_expansion


def _oracle_ratios(g: CDAG, max_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate mask (ascending) and its ratio, by the seed
    implementation's per-edge loops over materialized masks."""
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
    return masks, boundary / (d * sizes)


def _oracle(g: CDAG, max_size: int | None = None):
    """The seed implementation: the smallest mask of least ratio."""
    masks, ratios = _oracle_ratios(g, max_size)
    best = int(np.argmin(ratios))
    best_mask = np.zeros(g.n_vertices, dtype=bool)
    for i in range(g.n_vertices):
        if (int(masks[best]) >> i) & 1:
            best_mask[i] = True
    return float(ratios[best]), best_mask


def _gray_scan_py(
    adj: list[int], deg: list[int], d: int, n: int, limit: int
) -> tuple[float, int]:
    """Pure-Python binary-reflected Gray walk over all 2^n − 1 subsets.

    One vertex flips per step, so the boundary update is a single bitset
    intersection; candidates are pruned with ``boundary > d·|U|·h_best``
    before any division happens.
    """
    best_r, best_m = math.inf, 0
    cur = 0
    bnd = 0
    for i in range(1, 1 << n):
        nxt = i ^ (i >> 1)
        v = (cur ^ nxt).bit_length() - 1
        if (nxt >> v) & 1:  # v flipped in
            bnd += deg[v] - 2 * (adj[v] & cur).bit_count()
        else:  # v flipped out
            bnd -= deg[v] - 2 * (adj[v] & nxt).bit_count()
        cur = nxt
        s = cur.bit_count()
        if 1 <= s <= limit and bnd <= best_r * (d * s) + 1:
            r = bnd / (d * s)
            if r < best_r or (r == best_r and cur < best_m):
                best_r, best_m = r, cur
    return best_r, best_m


def _scalar_args(g: CDAG) -> tuple[list[int], list[int], int, int]:
    """``(adj, deg, d, n)`` in the form the scalar walks take."""
    adj = _ints_from_rows(g.adjacency_bits)
    return adj, [int(x) for x in g.degree], g.max_degree, g.n_vertices


def _random_graph(n: int, seed: int, p: float = 0.35) -> CDAG | None:
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                src.append(i)
                dst.append(j)
    if not src:
        return None
    return CDAG(n, np.array(src), np.array(dst), np.zeros(n, dtype=np.int8))


class TestPropertyOracle:
    """Hypothesis: v2 == seed oracle on random CDAGs with n ≤ 14."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=14), seed=st.integers(0, 2**31 - 1))
    def test_full_h_matches_oracle(self, n, seed):
        g = _random_graph(n, seed)
        if g is None:
            return
        h_ref, m_ref = _oracle(g)
        h_v2, m_v2 = exact_edge_expansion_v2(g)
        assert h_v2 == h_ref
        assert np.array_equal(m_v2, m_ref)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**31 - 1))
    def test_h_s_matches_oracle_at_every_s(self, n, seed):
        g = _random_graph(n, seed)
        if g is None:
            return
        for s in range(1, n + 1):
            h_ref, m_ref = _oracle(g, max_size=s)
            h_v2, m_v2 = exact_edge_expansion_v2(g, max_size=s)
            assert h_v2 == h_ref, (n, seed, s)
            assert np.array_equal(m_v2, m_ref), (n, seed, s)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=11), seed=st.integers(0, 2**31 - 1))
    def test_gray_backend_matches_oracle(self, n, seed):
        g = _random_graph(n, seed)
        if g is None:
            return
        adj, deg, d, _ = _scalar_args(g)
        h_ref, m_ref = _oracle(g)
        h_g, m_g = _gray_scan_py(adj, deg, d, n, n // 2)
        assert h_g == h_ref
        assert np.array_equal(_mask_to_bool(m_g, n), m_ref)
        s = max(1, n // 3)
        h_ref_s, m_ref_s = _oracle(g, max_size=s)
        h_gs, m_gs = _bounded_walk_py(adj, deg, d, n, s)
        assert h_gs == h_ref_s
        assert np.array_equal(_mask_to_bool(m_gs, n), m_ref_s)


def _multi_prefix_graph(kind: str, n: int, seed: int) -> CDAG | None:
    """Graphs for the multi-prefix scan: random, circulant, disconnected
    (two components, so h = 0) and tied (two copies of one graph joined by
    a matching, so every minimum has a mirror twin at another mask)."""
    if kind == "random":
        return _random_graph(n, seed, p=0.15 + (seed % 5) * 0.1)
    if kind == "circulant":
        return layered_circulant_cdag(n)
    half = n // 2
    first = _random_graph(half, seed)
    second = first if kind == "tied" else _random_graph(half, seed + 1)
    if first is None or second is None:
        return None
    (u0, v0), (u1, v1) = first.undirected_edges, second.undirected_edges
    src, dst = [u0, u1 + half], [v0, v1 + half]
    if kind == "tied":
        src.append(np.arange(half))
        dst.append(np.arange(half) + half)
        if n % 2:  # the odd vertex hangs off both mirror images of vertex 0
            src.append(np.array([0, half]))
            dst.append(np.array([n - 1, n - 1]))
    elif n % 2:  # the odd vertex joins the second component
        src.append(np.array([n - 2]))
        dst.append(np.array([n - 1]))
    return CDAG(n, np.concatenate(src), np.concatenate(dst), np.zeros(n, dtype=np.int8))


class TestMultiPrefixOracle:
    """Hypothesis: both full-scan kernels == seed oracle when the scan
    really walks many prefixes.

    ``_LOW_BITS`` drops to 4 so an n-vertex graph spans 2^(n-4) prefixes.
    Serial only: spawned pool workers re-import the module and would not
    see the patch (``jobs=2`` stays covered at the default width by
    :class:`TestParallelSharding`).
    """

    KINDS = ("random", "circulant", "disconnected", "tied")

    @pytest.mark.parametrize("backend", ["bitset", "native"])
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(min_value=5, max_value=16),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_full_scan_every_size_cap(self, backend, kind, n, seed):
        if backend == "native" and not native_backend_available():
            pytest.skip("native kernel unavailable")
        g = _multi_prefix_graph(kind, n, seed)
        if g is None or g.max_degree == 0:
            return
        adj, deg, d, _ = _scalar_args(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.exact._LOW_BITS", 4)
            h, m = exact_edge_expansion_v2(g, backend=backend)
            h_ref, m_ref = _oracle(g)
            assert h == h_ref, (kind, n, seed)
            assert np.array_equal(m, m_ref), (kind, n, seed)
            for s in range(1, n + 1):
                h_ref, m_ref = _oracle(g, max_size=s)
                r, mask = _full_scan(adj, deg, d, n, s, 1, backend)
                assert r == h_ref, (kind, n, seed, s)
                assert np.array_equal(_mask_to_bool(mask, n), m_ref), (kind, n, seed, s)


class TestNativeSpanSplits:
    """Hypothesis: both span kernels honour their span ``[p_lo, p_hi)``.

    Each span of a random split, seeded with ``(inf, 0)``, must return the
    lexicographic best over exactly its own prefixes, and the merge of the
    spans must equal the full scan and the seed oracle.  ``_LOW_BITS`` drops
    to 4 so the prefix space is ``2^(n-4)`` wide.
    """

    @pytest.mark.parametrize("backend", ["bitset", "native"])
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(TestMultiPrefixOracle.KINDS),
        n=st.integers(min_value=9, max_value=20),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_span_merge_matches_full_scan(self, backend, kind, n, seed, data):
        if backend == "native" and not native_backend_available():
            pytest.skip("native kernel unavailable")
        span_scan = _native_scan_span if backend == "native" else _scan_span
        g = _multi_prefix_graph(kind, n, seed)
        if g is None or g.max_degree == 0:
            return
        adj, deg, d, _ = _scalar_args(g)
        masks, ratios = _oracle_ratios(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.exact._LOW_BITS", 4)
            n_pref = _n_prefixes(n)
            cuts = data.draw(st.sets(st.integers(1, n_pref - 1), max_size=6))
            edges = [0, *sorted(cuts), n_pref]
            ctx = _search_ctx(adj, deg, d, n, n // 2)
            merged = (math.inf, 0)
            for lo, hi in zip(edges, edges[1:]):
                got = span_scan(ctx, lo, hi, (math.inf, 0))
                inside = ((masks >> 4) >= lo) & ((masks >> 4) < hi)
                want = (math.inf, 0)
                if inside.any():
                    r = float(ratios[inside].min())
                    want = (r, int(masks[inside][ratios[inside] == r].min()))
                assert got == want, (kind, n, seed, lo, hi)
                merged = min(merged, got)
            assert merged == _full_scan(adj, deg, d, n, n // 2, 1, backend)
        h_ref, m_ref = _oracle(g)
        assert merged[0] == h_ref
        assert np.array_equal(_mask_to_bool(merged[1], n), m_ref)


class TestScanSpanInfiniteSeed:
    """A numpy-backend span started from ``(inf, 0)``, with no running
    minimum to share, prunes nothing and computes no NaN threshold."""

    def test_no_runtime_warning_and_same_result(self):
        g = layered_circulant_cdag(18)
        adj, deg, d, n = _scalar_args(g)
        ctx = _search_ctx(adj, deg, d, n, n // 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _scan_span(ctx, 0, 1, (math.inf, 0))
        masks, ratios = _oracle_ratios(g)
        inside = (masks >> ctx.b) == 0
        r = float(ratios[inside].min())
        assert got == (r, int(masks[inside][ratios[inside] == r].min()))
        assert got == (11 / 54, 511)


class TestNativeBeyondLimit:
    """The native kernel reaches past the default limit on disconnected
    Dec_1 graphs: h = 0, witnessed by the smallest mask among the unions of
    whole components of size at most n/2."""

    @staticmethod
    def _components(adj: list[int], n: int) -> list[int]:
        comps, seen = [], 0
        for v in range(n):
            if (seen >> v) & 1:
                continue
            comp, frontier = 0, 1 << v
            while frontier:
                comp |= frontier
                nxt = 0
                while frontier:
                    u = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    nxt |= adj[u]
                frontier = nxt & ~comp
            comps.append(comp)
            seen |= comp
        return comps

    @pytest.mark.skipif(not native_backend_available(), reason="native kernel unavailable")
    @pytest.mark.parametrize("scheme", ["strassen122", "classical3"])
    def test_disconnected_dec1_at_limit_64(self, scheme):
        g = dec_graph(scheme, 1)
        adj, _, _, n = _scalar_args(g)
        assert n > DEFAULT_EXACT_LIMIT
        comps = self._components(adj, n)
        assert len(comps) > 1
        unions = []
        for pick in range(1, 1 << len(comps)):
            u = 0
            for i, comp in enumerate(comps):
                if (pick >> i) & 1:
                    u |= comp
            if u.bit_count() <= n // 2:
                unions.append(u)
        h, mask = exact_edge_expansion_v2(g, limit=64, backend="native")
        assert h == 0.0
        assert np.array_equal(mask, _mask_to_bool(min(unions), n))


class TestBackendsAgree:
    @pytest.mark.parametrize("scheme", ["strassen", "winograd", "classical2"])
    def test_dec1_all_backends(self, scheme):
        g = dec_graph(scheme, 1)
        h_ref, m_ref = _oracle(g)
        for kwargs in ({}, {"backend": "bitset"}):
            h, m = exact_edge_expansion_v2(g, **kwargs)
            assert h == h_ref
            assert np.array_equal(m, m_ref)

    def test_scalar_kernels_directly(self):
        g = layered_circulant_cdag(12)
        adj, deg, d, _ = _scalar_args(g)
        h_ref, m_ref = _oracle(g)
        r_gray, m_gray = _gray_scan_py(adj, deg, d, 12, 6)
        assert r_gray == h_ref
        r_walk, m_walk = _bounded_walk_py(adj, deg, d, 12, 6)
        assert r_walk == h_ref
        assert m_gray == m_walk == int(np.packbits(m_ref, bitorder="little").view(np.uint16)[0])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            exact_edge_expansion_v2(layered_circulant_cdag(6), backend="nope")


class TestParallelSharding:
    def test_jobs_do_not_change_results(self):
        # n=18 > _LOW_BITS so the prefix space really is sharded over the pool
        g = layered_circulant_cdag(18)
        h1, m1 = exact_edge_expansion_v2(g, jobs=1)
        h2, m2 = exact_edge_expansion_v2(g, jobs=2)
        assert h1 == h2
        assert np.array_equal(m1, m2)


class TestRuntimeLimitFlip:
    """Regression: gates that read an import-time copy of the ceiling while
    the auto-policy cache keys read effective_exact_limit() — flipping
    REPRO_EXACT_LIMIT at runtime desynchronized them."""

    def test_gate_follows_env_at_runtime(self, monkeypatch):
        g = layered_circulant_cdag(10)
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "8")
        with pytest.raises(ValueError, match="enumeration"):
            exact_edge_expansion_v2(g)
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "12")
        h, _ = exact_edge_expansion_v2(g)
        assert np.isfinite(h)

    def test_estimator_policy_follows_env(self, monkeypatch):
        g = layered_circulant_cdag(10)
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "8")
        assert estimate_expansion(g).method != "exact"
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "12")
        assert estimate_expansion(g).method == "exact"

    def test_expansion_decay_policy_follows_env(self, monkeypatch):
        from repro.engine.cache import EngineCache
        from repro.experiments.expansion_exp import expansion_decay

        monkeypatch.setenv("REPRO_EXACT_LIMIT", "8")
        result = expansion_decay("strassen", k_max=2, cache=EngineCache(disk=False))
        row = result["rows"][0]
        assert (row["k"], row["V"]) == (1, 11)
        assert row["method"] != "exact"
        monkeypatch.delenv("REPRO_EXACT_LIMIT")
        result = expansion_decay("strassen", k_max=2, cache=EngineCache(disk=False))
        assert result["rows"][0]["method"] == "exact"

    def test_explicit_limit_still_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXACT_LIMIT", "8")
        g = layered_circulant_cdag(10)
        h, _ = exact_edge_expansion_v2(g, limit=10)
        assert np.isfinite(h)


class TestRaisedLimit:
    def test_limit_is_32_plus(self):
        assert DEFAULT_EXACT_LIMIT >= 32
        assert effective_exact_limit() >= 32

    def test_n26_full_solve_works(self):
        g = layered_circulant_cdag(26)
        h, mask = exact_edge_expansion_v2(g)
        # the witness is a certified cut: ratio recomputed from the graph
        from repro.core.expansion import expansion_of_cut

        assert h == pytest.approx(expansion_of_cut(g, mask))

    def test_n32_full_solve_under_native(self):
        # The new ceiling's headline case: 2^32 subsets in seconds.  Skipped
        # (not failed) on the fallback leg — the numpy path handles the same
        # space but is deliberately not held to the native wall-clock budget.
        from repro.core.exact import native_backend_available

        if not native_backend_available():
            pytest.skip("native kernel unavailable")
        g = layered_circulant_cdag(32)
        h, mask = exact_edge_expansion_v2(g)
        from repro.core.expansion import expansion_of_cut

        assert h == pytest.approx(expansion_of_cut(g, mask))

    def test_beyond_limit_rejected_without_max_size(self):
        g = layered_circulant_cdag(effective_exact_limit() + 1)
        with pytest.raises(ValueError, match="enumeration"):
            exact_edge_expansion_v2(g)

    def test_explicit_limit_override(self):
        g = layered_circulant_cdag(10)
        with pytest.raises(ValueError, match="enumeration"):
            exact_edge_expansion_v2(g, limit=8)

    def test_dec2_of_122_scheme_solves_exactly_under_auto(self):
        # The headline scenario-space win: Dec_2 of a <1,2,2>-type scheme is
        # a 28-vertex graph, beyond the old 22-vertex ceiling.
        g = dec_graph("classical122", 2)
        assert g.n_vertices == 28
        est = estimate_expansion(g)
        assert est.method == "exact"
        assert est.lower == est.upper

    def test_cached_estimate_auto_is_exact_for_dec2_122(self):
        from repro.engine.builders import cached_estimate
        from repro.engine.cache import EngineCache

        est = cached_estimate("classical122", 2, policy="auto", cache=EngineCache(disk=False))
        assert est.method == "exact"
        assert est.lower == est.upper

    def test_e3_decay_table_gets_deeper_exact_rows(self):
        from repro.engine.cache import EngineCache
        from repro.experiments.expansion_exp import expansion_decay

        result = expansion_decay("classical122", k_max=2, cache=EngineCache(disk=False))
        methods = [r["method"] for r in result["rows"]]
        assert methods == ["exact", "exact"]  # k=2 was "spectral+sweep" pre-v2


class TestPaperValues:
    """h of the paper's smallest CDAGs and the Lemma 4.3 decay table, pinned."""

    def test_classical2_and_dec1_exact_values(self):
        g_cl = classical_matmul_cdag(2)  # 20 vertices: ~1M subsets enumerated
        assert g_cl.n_vertices == 20
        assert exact_edge_expansion_v2(g_cl)[0] == pytest.approx(2 / 15, rel=1e-12)
        g_dec = dec1_graph("strassen")
        assert exact_edge_expansion_v2(g_dec)[0] == pytest.approx(0.15, rel=1e-12)
        assert exact_edge_expansion_v2(g_dec, max_size=3)[0] == pytest.approx(1 / 6, rel=1e-12)

    def test_strassen_decay_table(self):
        from repro.engine.cache import EngineCache
        from repro.experiments.expansion_exp import expansion_decay, small_set_profile

        cache = EngineCache(disk=False)
        decay = expansion_decay("strassen", k_max=4, spectral_upto=3, cache=cache)
        assert [r["upper"] for r in decay["rows"]] == pytest.approx(
            [0.15, 0.05405405405405406, 0.026755852842809364, 0.014918414918414918],
            rel=1e-4,
        )
        assert decay["expected_decay"] == pytest.approx(4 / 7, rel=1e-12)
        small = small_set_profile("strassen", k=4, cache=cache)
        assert [r["h_of_cut"] for r in small["rows"]] == pytest.approx(
            [0.2857142857142857, 0.1038961038961039, 0.04915514592933948, 0.014918414918414918],
            rel=1e-4,
        )


class TestSmallSetWalk:
    def test_40_vertex_h3(self):
        # n=40 is far beyond any full enumeration
        g = layered_circulant_cdag(40)
        h3, mask = exact_edge_expansion_v2(g, max_size=3)
        assert 1 <= mask.sum() <= 3
        hs = [exact_edge_expansion_v2(g, max_size=s)[0] for s in (1, 2, 3)]
        assert hs[0] >= hs[1] >= hs[2]  # larger budgets can only cut deeper
        assert hs[2] == h3
        assert hs == pytest.approx([1 / 2, 5 / 12, 7 / 18], rel=1e-12)

    def test_40_vertex_matches_scalar_walk(self):
        g = layered_circulant_cdag(40)
        adj, deg, d, _ = _scalar_args(g)
        r_walk, m_walk = _bounded_walk_py(adj, deg, d, 40, 3)
        h3, mask = exact_edge_expansion_v2(g, max_size=3)
        assert h3 == r_walk

    def test_infeasible_walk_reports_clearly(self):
        g = layered_circulant_cdag(70)  # far beyond the limit, s too big too
        with pytest.raises(ValueError, match="infeasible"):
            exact_edge_expansion_v2(g, max_size=30, limit=28)

    def test_beyond_uint64_uses_python_int_walk(self):
        # Past the limit every h_s runs the Python-int walk, so masks wider
        # than one uint64 word (n > 63) need no special case.
        g = layered_circulant_cdag(70)
        h2, mask = exact_edge_expansion_v2(g, max_size=2)
        adj, deg, d, _ = _scalar_args(g)
        r_ref, _ = _bounded_walk_py(adj, deg, d, 70, 2)
        assert h2 == r_ref
        assert 1 <= mask.sum() <= 2


class TestDispatch:
    """The limit alone picks the search: the scan up to it, the walk past it."""

    @staticmethod
    def _spy(monkeypatch, name: str) -> list[int]:
        # record each call's size cap (the scan's ``limit``, the walk's ``s_max``)
        caps: list[int] = []
        real = getattr(exact_mod, name)

        def spy(adj, deg, d, n, cap, *rest):
            caps.append(cap)
            return real(adj, deg, d, n, cap, *rest)

        monkeypatch.setattr(exact_mod, name, spy)
        return caps

    def test_capped_search_below_limit_runs_the_scan(self, monkeypatch):
        scans = self._spy(monkeypatch, "_full_scan")
        walks = self._spy(monkeypatch, "_bounded_walk_py")
        g = layered_circulant_cdag(24)
        h, mask = exact_edge_expansion_v2(g, max_size=6, limit=32)
        assert (scans, walks) == ([6], [])
        adj, deg, d, n = _scalar_args(g)
        r_w, m_w = _bounded_walk_py(adj, deg, d, n, 6)
        assert h == r_w
        assert np.array_equal(mask, _mask_to_bool(m_w, n))

    @pytest.mark.parametrize("n, s", [(40, 3), (70, 2)])
    def test_capped_search_past_limit_runs_the_walk(self, monkeypatch, n, s):
        scans = self._spy(monkeypatch, "_full_scan")
        walks = self._spy(monkeypatch, "_bounded_walk_py")
        exact_edge_expansion_v2(layered_circulant_cdag(n), max_size=s, limit=32)
        assert (scans, walks) == ([], [s])


class TestBitsetAdjacency:
    def test_packed_rows_match_adjacency_matrix(self):
        g = dec_graph("strassen", 2)
        bits = g.adjacency_bits
        A = g.adjacency.toarray()
        n = g.n_vertices
        for i in range(n):
            row = 0
            for w in range(bits.shape[1] - 1, -1, -1):
                row = (row << 64) | int(bits[i, w])
            neigh = {j for j in range(n) if (row >> j) & 1}
            assert neigh == set(np.flatnonzero(A[i]))

    def test_adjacency_ints_roundtrip(self):
        g = layered_circulant_cdag(70)  # multi-word rows
        adj = _ints_from_rows(g.adjacency_bits)
        u, v = g.undirected_edges
        expect = [0] * 70
        for a, b in zip(u.tolist(), v.tolist()):
            expect[a] |= 1 << b
            expect[b] |= 1 << a
        assert adj == expect


class TestEdgeCases:
    def test_too_small_graph(self):
        b = GraphBuilder()
        b.add_vertex(VertexKind.INPUT)
        with pytest.raises(ValueError, match="< 2 vertices"):
            exact_edge_expansion_v2(b.freeze())

    def test_edgeless_graph_keeps_seed_semantics(self):
        b = GraphBuilder()
        b.add_vertices(4, VertexKind.INPUT)
        h, mask = exact_edge_expansion_v2(b.freeze())
        assert np.isnan(h)
        assert mask.tolist() == [True, False, False, False]

    def test_zero_max_size_rejected(self):
        with pytest.raises(ValueError, match="max_size"):
            exact_edge_expansion_v2(layered_circulant_cdag(6), max_size=0)

    def test_circulant_builder_shape(self):
        g = layered_circulant_cdag(10, offsets=(1, 3))
        assert g.n_vertices == 10
        assert g.n_edges == 9 + 7
        with pytest.raises(ValueError, match="at least 2"):
            layered_circulant_cdag(1)


class TestDedupReuse:
    def test_edge_list_computed_exactly_once(self, monkeypatch):
        g = dec_graph("strassen", 2)
        calls = []
        orig = CDAG._undirected_simple_edges

        def counting(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(CDAG, "_undirected_simple_edges", counting)
        mask = np.zeros(g.n_vertices, dtype=bool)
        mask[0] = True
        _ = g.undirected_edges
        _ = g.degree
        _ = g.adjacency
        _ = g.adjacency_bits
        _ = g.edge_boundary_size(mask)
        assert len(calls) <= 1  # cached_property: at most the first accessor

    def test_dedup_matches_unique(self):
        rng = np.random.default_rng(3)
        n = 30
        src = rng.integers(0, n, 200)
        dst = (src + 1 + rng.integers(0, n - 1, 200)) % n
        keep = src != dst
        g = CDAG(n, src[keep], dst[keep], np.zeros(n, dtype=np.int8))
        u, v = g.undirected_edges
        lo = np.minimum(src[keep], dst[keep])
        hi = np.maximum(src[keep], dst[keep])
        key = np.unique(lo * n + hi)
        assert np.array_equal(u, key // n)
        assert np.array_equal(v, key % n)
        assert np.all(u < v)


class TestDecodeConeErrors:
    def test_all_cones_oversized_reports_constraint(self):
        from repro.core.expansion import decode_cone_upper_bound

        # The trivial <1,1,1> scheme has one branch whose depth-k cone holds
        # k of the k+1 vertices: always more than |V|/2 for k >= 2.
        g = dec_graph("classical1x1x1", 2)
        with pytest.raises(ValueError, match=r"exceed \|V\|/2"):
            decode_cone_upper_bound(g, "classical1x1x1", 2)

    def test_all_cones_empty_reports_constraint(self, monkeypatch):
        import repro.core.expansion as expansion

        g = dec_graph("strassen", 2)

        def empty_mask(scheme, k, branch=0, depth=None):
            return np.zeros(g.n_vertices, dtype=bool)

        monkeypatch.setattr(expansion, "decode_cone_mask", empty_mask)
        with pytest.raises(ValueError, match="empty"):
            expansion.decode_cone_upper_bound(g, "strassen", 2)

    def test_feasible_path_still_works(self):
        from repro.core.expansion import decode_cone_upper_bound, expansion_of_cut

        g = dec_graph("strassen", 3)
        ratio, mask = decode_cone_upper_bound(g, "strassen", 3)
        assert ratio == pytest.approx(expansion_of_cut(g, mask))
