"""Tests for sequential algorithms: in-core numerics and I/O-explicit runs."""


import numpy as np
import pytest

from repro.algorithms.io_classical import blocked_io, naive_io, recursive_io
from repro.algorithms.io_strassen import (
    canonical_base_size,
    dfs_io,
    dfs_io_model,
    rect_dfs_io_model,
)
from repro.algorithms.strassen import bilinear_multiply, count_flops, strassen_multiply
from repro.cdag.schemes import get_scheme
from repro.util.matgen import hilbert_like, integer_matrix, random_matrix


class TestInCoreNumerics:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_strassen_exact_on_integers(self, n):
        A = integer_matrix(n, seed=n)
        B = integer_matrix(n, seed=n + 1)
        C = strassen_multiply(A, B, cutoff=4)
        assert np.array_equal(C, A @ B)

    @pytest.mark.parametrize("variant", ["strassen", "winograd"])
    def test_variants_exact(self, variant):
        A = integer_matrix(32, seed=1)
        B = integer_matrix(32, seed=2)
        assert np.array_equal(strassen_multiply(A, B, cutoff=4, variant=variant), A @ B)

    def test_all_schemes_multiply_correctly(self, any_scheme):
        # two recursion levels of the scheme's own (possibly rectangular) shape
        s = any_scheme
        m, n, p = s.m0**2 * 2, s.n0**2 * 2, s.p0**2 * 2
        rng = np.random.default_rng(34)
        A = rng.integers(-4, 5, (m, n)).astype(float)
        B = rng.integers(-4, 5, (n, p)).astype(float)
        C = bilinear_multiply(A, B, s, cutoff=max(s.m0, s.n0, s.p0))
        assert np.array_equal(C, A @ B)

    def test_float_accuracy_reasonable(self):
        A = random_matrix(64, seed=1)
        B = random_matrix(64, seed=2)
        C = strassen_multiply(A, B, cutoff=8)
        assert np.allclose(C, A @ B, atol=1e-10)

    def test_ill_conditioned_budgeted(self):
        # Strassen loses a constant number of digits vs classical — allow it
        A = hilbert_like(32)
        C = strassen_multiply(A, A, cutoff=4)
        assert np.allclose(C, A @ A, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bilinear_multiply(np.zeros((4, 4)), np.zeros((8, 8)))
        with pytest.raises(ValueError):
            bilinear_multiply(np.zeros((4, 8)), np.zeros((4, 8)))

    def test_indivisible_size_raises(self):
        # 9 is odd and above the cutoff: the pure recursion cannot split it
        A = np.zeros((9, 9))
        with pytest.raises(ValueError, match="not divisible"):
            bilinear_multiply(A, A, "strassen", cutoff=3)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            strassen_multiply(np.eye(4), np.eye(4), variant="nope")

    def test_cutoff_larger_than_n_is_classical(self):
        A = integer_matrix(8, seed=7)
        B = integer_matrix(8, seed=8)
        assert np.array_equal(strassen_multiply(A, B, cutoff=16), A @ B)


class TestFlopCounts:
    def test_classical_base_counts(self):
        fc = count_flops(4, "strassen", cutoff=4)
        assert fc.multiplications == 64
        assert fc.additions == 16 * 3

    def test_strassen_reduces_multiplications(self):
        classical = count_flops(64, "classical2", cutoff=1)
        fast = count_flops(64, "strassen", cutoff=1)
        assert fast.multiplications < classical.multiplications

    def test_multiplication_count_formula(self):
        # pure recursion to 1x1: exactly 7^lg n multiplications
        fc = count_flops(16, "strassen", cutoff=1)
        assert fc.multiplications == 7**4

    def test_omega_scaling(self):
        s = get_scheme("strassen")
        f1 = count_flops(64, s, cutoff=1).total
        f2 = count_flops(128, s, cutoff=1).total
        assert 6.5 < f2 / f1 < 7.5  # ~m0 per doubling


class TestCanonicalBase:
    def test_base_fits(self):
        b = canonical_base_size(256, 3 * 16 * 16, 2)
        assert b == 16

    def test_unreachable_base_raises(self):
        with pytest.raises(ValueError):
            canonical_base_size(192, 8, 2)  # 192 -> 96 -> ... -> 3: 3*9>8

    def test_tiny_m_raises(self):
        with pytest.raises(ValueError):
            canonical_base_size(8, 2, 2)


class TestDfsIO:
    def test_model_equals_simulation(self, small_scheme):
        for n, M in ((64, 192), (128, 768)):
            a = dfs_io(n, M, small_scheme)
            b = dfs_io_model(n, M, small_scheme)
            assert a.words == b.words
            assert a.messages == b.messages
            assert a.n_base_multiplies == b.n_base_multiplies

    def test_base_case_count(self):
        rep = dfs_io(64, 3 * 16 * 16, "strassen")
        assert rep.n_base_multiplies == 49  # two recursion levels: 7^2

    def test_recurrence_structure(self):
        # IO(n) = t0 IO(n/2) + streams: check the exact recurrence
        s = get_scheme("strassen")
        M = 768
        io_n = dfs_io_model(128, M, s).words
        io_half = dfs_io_model(64, M, s).words
        sub_words = 64 * 64
        u_nnz = int((s.U != 0).sum())
        v_nnz = int((s.V != 0).sum())
        w_nnz = int((s.W != 0).sum())
        streams = (u_nnz + s.t0) + (v_nnz + s.t0) + (w_nnz + 4)
        assert io_n == s.t0 * io_half + streams * sub_words

    def test_in_memory_case(self):
        # when 3n^2 <= M: just read inputs, write output
        rep = dfs_io(16, 1000, "strassen")
        assert rep.words == 3 * 256

    def test_io_decreases_with_memory(self):
        ios = [dfs_io_model(512, 3 * b * b).words for b in (8, 16, 32, 64)]
        assert ios == sorted(ios, reverse=True)

    def test_custom_base_monotone(self):
        # cutting the recursion deeper than necessary only adds I/O
        M = 3 * 32 * 32
        words = [dfs_io_model(256, M, "strassen", base=b).words for b in (32, 16, 8, 4)]
        assert words == sorted(words)

    def test_infeasible_base_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            dfs_io_model(256, 192, "strassen", base=64)

    def test_unreachable_base_rejected(self):
        with pytest.raises(ValueError, match="not reachable"):
            dfs_io_model(256, 3 * 32 * 32, "strassen", base=24)

    def test_degenerate_scheme_explicit_base_rejected(self):
        # ⟨1,1,1⟩ cannot shrink n toward a smaller base: a clear error, not
        # an endless division by 1
        with pytest.raises(ValueError, match="not reachable"):
            dfs_io_model(8, 1000, "classical1x1x1", base=4)

    def test_messages_bounded_by_words(self):
        rep = dfs_io_model(256, 768, "strassen")
        assert rep.messages <= rep.words


class TestRectDfsIO:
    def test_square_shapes_reproduce_square_model(self, small_scheme):
        # the rectangular model on (n, n, n) must agree with dfs_io_model
        # word-for-word — the two engines share one accounting
        for n, M in ((64, 192), (128, 768), (256, 3072)):
            sq = dfs_io_model(n, M, small_scheme)
            rect = rect_dfs_io_model(n, n, n, M, small_scheme)
            assert rect.words == sq.words
            assert rect.messages == sq.messages
            assert rect.n_base_multiplies == sq.n_base_multiplies

    def test_rect_recurrence_structure(self):
        # IO(m,n,p) = t0 IO(m/m0, n/n0, p/p0) + per-level streams
        s = get_scheme("strassen122")
        M = 768
        m, n, p = 2**3, 4**3, 4**3
        top = rect_dfs_io_model(m, n, p, M, s).words
        sub = rect_dfs_io_model(m // 2, n // 4, p // 4, M, s).words
        aw = (m // 2) * (n // 4)
        bw = (n // 4) * (p // 4)
        cw = (m // 2) * (p // 4)
        u_nnz = int((s.U != 0).sum())
        v_nnz = int((s.V != 0).sum())
        w_nnz = int((s.W != 0).sum())
        streams = (
            (u_nnz + s.t0) * aw + (v_nnz + s.t0) * bw + (w_nnz + s.c_blocks) * cw
        )
        assert top == s.t0 * sub + streams

    def test_rect_base_case_counts(self):
        # blocks fit: read A and B, write C, one multiply
        rep = rect_dfs_io_model(2, 8, 4, 1000, "strassen122")
        assert rep.words == (2 * 8 + 8 * 4) + 2 * 4
        assert rep.messages == 3
        assert rep.n_base_multiplies == 1

    def test_rect_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            rect_dfs_io_model(3, 5, 7, 3, "strassen122")

    def test_degenerate_unit_scheme_errors_instead_of_looping(self):
        # ⟨1,1,1⟩ (mintable via the dynamic registry) cannot shrink anything:
        # must be a clear error, not unbounded recursion / an infinite loop
        with pytest.raises(ValueError, match="cannot shrink"):
            rect_dfs_io_model(8, 8, 8, 3, "classical1x1x1")
        with pytest.raises(ValueError, match="cannot recurse"):
            dfs_io_model(8, 3, "classical1x1x1")
        # but when the problem already fits, the degenerate scheme is fine
        assert rect_dfs_io_model(2, 2, 2, 1000, "classical1x1x1").words == 12

    def test_square_models_reject_rect_schemes(self):
        with pytest.raises(ValueError, match="rect_dfs_io_model"):
            dfs_io_model(64, 192, "strassen122")
        with pytest.raises(ValueError, match="rect_dfs_io_model"):
            dfs_io(64, 192, "classical122")


class TestClassicalIO:
    def test_blocked_matches_formula(self):
        n, M = 64, 3 * 16 * 16
        io = blocked_io(n, M).words
        b = 16
        t = n // b
        # per C tile: write b² + read 2 t b²; t² tiles
        assert io == t * t * (b * b + 2 * t * b * b)

    def test_blocked_beats_naive(self):
        n, M = 64, 3 * 16 * 16
        assert blocked_io(n, M).words < naive_io(n, M).words

    def test_recursive_matches_blocked_shape(self):
        n, M = 128, 3 * 16 * 16
        rec = recursive_io(n, M).words
        blk = blocked_io(n, M).words
        assert 0.5 < rec / blk < 4.0  # same Θ(n³/√M), constant differs

    def test_recursive_is_cache_adaptive(self):
        # same call, bigger M -> less I/O, no parameter change (oblivious)
        ios = [recursive_io(128, 3 * b * b).words for b in (8, 16, 32)]
        assert ios == sorted(ios, reverse=True)

    def test_naive_cubic_shape(self):
        io32 = naive_io(32, 256).words
        io64 = naive_io(64, 256).words
        assert 6.5 < io64 / io32 < 8.5

    def test_blocked_requires_divisibility(self):
        with pytest.raises(ValueError):
            blocked_io(100, 3 * 16 * 16)

    def test_naive_needs_two_rows(self):
        with pytest.raises(MemoryError):
            naive_io(64, 100)
