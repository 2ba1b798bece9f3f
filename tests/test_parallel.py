"""Tests for the parallel algorithms: numerics, costs, memory regimes."""

import math

import numpy as np
import pytest

from repro.parallel import ParallelConfig, get_parallel
from repro.parallel.caps import quadtree_permutation, validate_caps_geometry
from repro.cdag.schemes import get_scheme
from repro.util.matgen import integer_matrix, random_matrix


def _pair(n, s1=11, s2=13):
    return integer_matrix(n, seed=s1), integer_matrix(n, seed=s2)


def _execute(name, A, B, p, *, c=1, scheme=None, schedule=None, memory_limit=None):
    cfg = ParallelConfig(
        n=A.shape[0], p=p, c=c, scheme=scheme, schedule=schedule,
        memory_limit=memory_limit,
    )
    return get_parallel(name).execute(A, B, cfg)


def cannon_multiply(A, B, q, memory_limit=None):
    return _execute("cannon", A, B, q * q, memory_limit=memory_limit)


def summa_multiply(A, B, q, memory_limit=None):
    return _execute("summa", A, B, q * q, memory_limit=memory_limit)


def threed_multiply(A, B, q, memory_limit=None):
    return _execute("3d", A, B, q**3, memory_limit=memory_limit)


def two5d_multiply(A, B, q, c, memory_limit=None):
    return _execute("2.5d", A, B, q * q * c, c=c, memory_limit=memory_limit)


def caps_multiply(A, B, ell, schedule=None, memory_limit=None, scheme="strassen"):
    t0 = get_scheme(scheme).t0
    return _execute(
        "caps", A, B, t0**ell, scheme=scheme, schedule=schedule,
        memory_limit=memory_limit,
    )


class TestCannon:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_exact_product(self, q):
        n = 12
        A, B = _pair(n)
        r = cannon_multiply(A, B, q)
        assert np.array_equal(r.C, A @ B)

    def test_bandwidth_exact_form(self):
        # measured = skew (2 permutations) + 2(q-1) shift rounds, each 2b²
        n, q = 32, 4
        A, B = _pair(n)
        r = cannon_multiply(A, B, q)
        b2 = (n // q) ** 2
        assert r.critical_words == 2 * 2 * b2 + 2 * (q - 1) * 2 * b2

    def test_bandwidth_scales_inverse_sqrt_p(self):
        n = 64
        A, B = _pair(n)
        words = [cannon_multiply(A, B, q).critical_words for q in (2, 4, 8)]
        assert words[0] / words[1] == pytest.approx(2.0, rel=0.1)
        assert words[1] / words[2] == pytest.approx(2.0, rel=0.1)

    def test_minimal_memory_regime(self):
        # Cannon is a "2D" algorithm: peak memory Θ(n²/p), here exactly 3 blocks + transit
        n, q = 32, 4
        A, B = _pair(n)
        r = cannon_multiply(A, B, q)
        assert r.max_mem_peak <= 5 * (n // q) ** 2

    def test_memory_limit_respected(self):
        n, q = 32, 4
        A, B = _pair(n)
        r = cannon_multiply(A, B, q, memory_limit=5 * (n // q) ** 2)
        assert np.array_equal(r.C, A @ B)

    def test_float_inputs(self):
        A = random_matrix(24, seed=3)
        B = random_matrix(24, seed=4)
        r = cannon_multiply(A, B, 2)
        assert np.allclose(r.C, A @ B, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cannon_multiply(np.zeros((4, 6)), np.zeros((4, 6)), 2)

    def test_rejects_indivisible_grid_up_front(self):
        # q ∤ n used to reach b = n // q and truncate; now a clear error
        with pytest.raises(ValueError, match="not divisible by grid side"):
            cannon_multiply(np.eye(10), np.eye(10), 3)


class TestSumma:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_exact_product(self, q):
        n = 24
        A, B = _pair(n)
        r = summa_multiply(A, B, q)
        assert np.array_equal(r.C, A @ B)

    def test_lg_factor_vs_cannon(self):
        # SUMMA pays a lg q broadcast factor over Cannon
        n = 64
        A, B = _pair(n)
        c = cannon_multiply(A, B, 8).critical_words
        s = summa_multiply(A, B, 8).critical_words
        assert s > c
        assert s < c * (1 + math.log2(8))

    def test_rejects_indivisible_grid_up_front(self):
        with pytest.raises(ValueError, match="not divisible by grid side"):
            summa_multiply(np.eye(10), np.eye(10), 3)


class TestThreeD:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_exact_product(self, q):
        n = 12
        A, B = _pair(n)
        r = threed_multiply(A, B, q)
        assert np.array_equal(r.C, A @ B)

    def test_memory_is_3d_regime(self):
        # per-rank peak Θ(n²/p^(2/3)): a few blocks of size (n/q)²
        n, q = 32, 4
        A, B = _pair(n)
        r = threed_multiply(A, B, q)
        assert r.max_mem_peak <= 6 * (n // q) ** 2

    def test_at_least_matches_cannon_at_same_p(self):
        # p = 64: 3D (q=4) vs 2D Cannon (q=8).  Table I promises a p^(1/6)
        # asymptotic win; at p=64 the broadcast lg-factors eat it, so the
        # sharp check is "no worse", with the scaling fit in E6 showing the
        # different exponents.
        n = 64
        A, B = _pair(n)
        w3 = threed_multiply(A, B, 4).critical_words
        w2 = cannon_multiply(A, B, 8).critical_words
        assert w3 <= w2

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            threed_multiply(np.eye(10), np.eye(10), 4)


class TestTwo5D:
    @pytest.mark.parametrize("q,c", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (6, 3)])
    def test_exact_product(self, q, c):
        n = 24
        A, B = _pair(n)
        r = two5d_multiply(A, B, q, c)
        assert np.array_equal(r.C, A @ B)

    def test_c1_matches_cannon_shape(self):
        n = 32
        A, B = _pair(n)
        w25 = two5d_multiply(A, B, 4, 1).critical_words
        wc = cannon_multiply(A, B, 4).critical_words
        assert w25 == wc  # c=1 degenerates to Cannon exactly

    def test_memory_grows_with_c_at_fixed_p(self):
        # the regime statement M = Θ(c·n²/p) is at fixed p: p = 64 via
        # (q=8, c=1) vs (q=4, c=4) — replication costs real memory
        n = 32
        A, B = _pair(n)
        m1 = two5d_multiply(A, B, 8, 1).max_mem_peak
        m4 = two5d_multiply(A, B, 4, 4).max_mem_peak
        assert m4 > m1

    def test_shift_phase_shrinks_with_c(self):
        # count only the shift supersteps: q/c-1 rounds instead of q-1
        n = 32
        A, B = _pair(n)
        r1 = two5d_multiply(A, B, 4, 1)
        r4 = two5d_multiply(A, B, 4, 4)
        shifts1 = sum(1 for s in r1.machine.log.steps if s.label.startswith("shift"))
        shifts4 = sum(1 for s in r4.machine.log.steps if s.label.startswith("shift"))
        assert shifts4 < shifts1

    def test_c_must_divide_q(self):
        with pytest.raises(ValueError):
            two5d_multiply(np.eye(8), np.eye(8), 4, 3)


class TestQuadtreePermutation:
    def test_identity_at_depth_zero(self):
        assert np.array_equal(quadtree_permutation(4, 0), np.arange(16))

    def test_depth_one_blocks(self):
        perm = quadtree_permutation(2, 1)
        assert perm.tolist() == [0, 1, 2, 3]  # 1x1 leaves in row-major quads

    def test_permutation_is_bijection(self):
        perm = quadtree_permutation(8, 2)
        assert sorted(perm.tolist()) == list(range(64))

    def test_quadrants_contiguous(self):
        n, d = 8, 1
        perm = quadtree_permutation(n, d)
        M = np.arange(64).reshape(8, 8)
        flat = M.ravel()[perm]
        # first quarter must be exactly the top-left quadrant row-major
        assert np.array_equal(flat[:16], M[:4, :4].ravel())

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            quadtree_permutation(6, 2)


class TestCapsGeometry:
    def test_valid_geometry_accepts(self):
        validate_caps_geometry(14, 7, "B")
        validate_caps_geometry(28, 49, "BB")
        validate_caps_geometry(56, 49, "DBB")

    def test_wrong_bfs_count(self):
        with pytest.raises(ValueError, match="BFS steps"):
            validate_caps_geometry(28, 49, "B")

    def test_divisibility_violation(self):
        with pytest.raises(ValueError, match="does not divide"):
            validate_caps_geometry(8, 7, "B")

    def test_bad_symbol(self):
        with pytest.raises(ValueError, match="'B'/'D'"):
            validate_caps_geometry(28, 7, "XB"[:1] + "B")


class TestCaps:
    @pytest.mark.parametrize("n,ell,sched", [
        (14, 1, "B"),
        (28, 1, "B"),
        (28, 1, "DB"),
        (28, 1, "BD"),
        (28, 2, "BB"),
        (56, 2, "DBB"),
        (56, 2, "BDB"),
        (56, 2, "BBD"),
    ])
    def test_exact_product(self, n, ell, sched):
        A, B = _pair(n)
        r = caps_multiply(A, B, ell, schedule=sched)
        assert np.array_equal(r.C, A @ B)

    def test_float_numerics(self):
        A = random_matrix(28, seed=5)
        B = random_matrix(28, seed=6)
        r = caps_multiply(A, B, 1)
        assert np.allclose(r.C, A @ B, atol=1e-12)

    def test_winograd_scheme_works(self):
        A, B = _pair(28)
        r = caps_multiply(A, B, 1, scheme="winograd")
        assert np.array_equal(r.C, A @ B)

    def test_dfs_trades_bandwidth_for_memory(self):
        # the CAPS tradeoff: more DFS steps -> fewer words of memory,
        # more words of communication
        A, B = _pair(56)
        bb = caps_multiply(A, B, 2, schedule="BB")
        dbb = caps_multiply(A, B, 2, schedule="DBB")
        assert dbb.max_mem_peak < bb.max_mem_peak
        assert dbb.critical_words > bb.critical_words

    def test_bfs_comm_only_in_redistribution(self):
        # all-DFS-then-base would be ell=0; with one B, supersteps = 2
        A, B = _pair(14)
        r = caps_multiply(A, B, 1, schedule="B")
        labels = [s.label for s in r.machine.log.steps]
        assert all("caps-bfs" in lab for lab in labels)
        assert len(labels) == 2  # forward + inverse redistribution

    def test_dfs_step_is_communication_free(self):
        A, B = _pair(28)
        r_db = caps_multiply(A, B, 1, schedule="DB")
        # DB: the D step adds no supersteps; only the B step's 2 remain,
        # but run 7 times (once per DFS branch) = 14
        labels = [s.label for s in r_db.machine.log.steps]
        assert labels == ["caps-bfs-fwd@1", "caps-bfs-bwd@1"] * 7

    def test_rectangular_scheme_rejected(self):
        A, B = _pair(16)
        with pytest.raises(ValueError, match="square scheme"):
            caps_multiply(A, B, 1, scheme="strassen122")

    def test_scheme_driven_3x3_recursion(self):
        # the layout generalizes beyond 2x2: classical3 runs on 27 ranks
        A, B = _pair(27)
        r = caps_multiply(A, B, 1, scheme="classical3")
        assert r.p == 27
        assert np.allclose(r.C, A @ B)

    def test_memory_limit_enforcement(self):
        A, B = _pair(56)
        lean = caps_multiply(A, B, 2, schedule="DBB").max_mem_peak
        # the all-BFS schedule cannot run within the lean footprint
        with pytest.raises(MemoryError):
            caps_multiply(A, B, 2, schedule="BB", memory_limit=lean)


class TestCapsMemorySweep:
    def test_rows_are_the_valid_schedules(self):
        from repro.experiments.table1 import caps_memory_sweep

        rows = caps_memory_sweep(n=56)["rows"]
        assert [r["schedule"] for r in rows] == ["BB", "DBB", "BDB", "BBD"]
        assert all(r["verified"] for r in rows)

    def test_simulation_errors_propagate(self, monkeypatch):
        # a ValueError raised inside the simulation is a bug, not an
        # invalid schedule: the sweep must not silently drop the row
        import repro.parallel.caps as caps_mod
        from repro.experiments.table1 import caps_memory_sweep

        def broken(*args, **kwargs):
            raise ValueError("simulated failure inside the CAPS recursion")

        monkeypatch.setattr(caps_mod, "_caps", broken)
        with pytest.raises(ValueError, match="simulated failure"):
            caps_memory_sweep(n=56)
