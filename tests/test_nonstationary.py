"""Tests for the §5.2 uniform non-stationary class."""

import itertools
import math
import random

import numpy as np
import pytest

from repro.algorithms.io_strassen import dfs_io, dfs_io_model
from repro.algorithms.nonstationary import (
    nonstationary_flops,
    nonstationary_io,
    nonstationary_multiply,
    strassen_with_cutoff_levels,
)
from repro.cdag.schemes import available_schemes, get_scheme
from repro.util.matgen import integer_matrix


class TestNumerics:
    @pytest.mark.parametrize("schemes", [
        ["strassen"],
        ["strassen", "winograd"],
        ["winograd", "strassen", "classical2"],
        ["strassen", "classical2", "strassen"],
        ["hybrid4", "strassen"],
    ])
    def test_exact_product(self, schemes):
        n = 16
        A = integer_matrix(n, seed=1)
        B = integer_matrix(n, seed=2)
        C = nonstationary_multiply(A, B, schemes)
        assert np.array_equal(C, A @ B)

    def test_empty_list_is_classical(self):
        A = integer_matrix(8, seed=3)
        B = integer_matrix(8, seed=4)
        assert np.array_equal(nonstationary_multiply(A, B, []), A @ B)

    def test_indivisible_level_falls_back(self):
        # n=12: strassen level (12->6), then 3x3 classical level (6->2),
        # then fallback — mixing base sizes is the point of the class
        A = integer_matrix(12, seed=5)
        B = integer_matrix(12, seed=6)
        C = nonstationary_multiply(A, B, ["strassen", "classical3"])
        assert np.array_equal(C, A @ B)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nonstationary_multiply(np.zeros((4, 6)), np.zeros((4, 6)), ["strassen"])


class TestIO:
    def test_pure_strassen_matches_stationary(self):
        # a long-enough all-strassen list reproduces dfs_io exactly
        n, M = 128, 768
        rep_ns = nonstationary_io(n, M, ["strassen"] * 3)
        rep_st = dfs_io(n, M, "strassen")
        assert rep_ns.words == rep_st.words
        assert rep_ns.n_base_multiplies == rep_st.n_base_multiplies

    def test_switch_to_classical_costs_more(self):
        # strassen+classical2 below does more I/O than strassen+strassen
        n, M = 128, 192
        fast = nonstationary_io(n, M, ["strassen"] * 4).words
        hybrid = nonstationary_io(n, M, ["strassen"] + ["classical2"] * 3).words
        assert fast < hybrid

    def test_exhausted_list_raises(self):
        with pytest.raises(ValueError, match="exhausted"):
            nonstationary_io(128, 192, ["strassen"])

    def test_indivisible_raises(self):
        # 10 -> 5 above the base; 5 is not divisible by the next level's n0
        with pytest.raises(ValueError, match="divisible"):
            nonstationary_io(10, 48, ["strassen", "strassen"])

    def test_base_multiplies_product_of_m0(self):
        rep = nonstationary_io(64, 3 * 16 * 16, ["strassen", "classical2"])
        assert rep.n_base_multiplies == 7 * 8

    def test_interpolates_between_omegas(self):
        # more strassen levels => less I/O, monotonically
        n, M = 256, 192
        words = []
        for k in range(0, 4):
            schemes = ["strassen"] * k + ["classical2"] * (5 - k)
            words.append(nonstationary_io(n, M, schemes).words)
        assert words == sorted(words, reverse=True)


class TestFlops:
    def test_classical_count(self):
        assert nonstationary_flops(8, []) == 2 * 512 - 64

    def test_strassen_level_reduces_flops_at_scale(self):
        n = 1024
        f0 = nonstationary_flops(n, [])
        f3 = nonstationary_flops(n, ["strassen"] * 3)
        assert f3 < f0

    def test_cutoff_helper(self):
        assert strassen_with_cutoff_levels(4, 3) == ["strassen"] * 3
        with pytest.raises(ValueError):
            strassen_with_cutoff_levels(4, -1)


def _counts(rep):
    c = rep.counter
    return (
        c.words_read,
        c.messages_read,
        c.words_written,
        c.messages_written,
        rep.n_base_multiplies,
    )


SQUARE_SCHEMES = [s for s in available_schemes() if get_scheme(s).is_square]

#: simulate only recursion trees this small; the recurrence covers the rest
MAX_SIMULATED_LEAVES = 4096


class TestRecurrenceMatchesSimulator:
    """The one I/O recurrence against the FastMemory reference simulator."""

    @pytest.mark.parametrize("name", SQUARE_SCHEMES)
    def test_square_model_matches_simulation(self, name):
        n0 = get_scheme(name).n0
        compared = 0
        for n, M, base in itertools.product(
            (n0, 3 * n0, n0**2, n0**3), (3, 12, 27, 48, 192, 768), (None, 1)
        ):
            try:
                model = dfs_io_model(n, M, name, base=base)
            except ValueError:
                with pytest.raises(ValueError):
                    dfs_io(n, M, name, base=base)
                continue
            if model.n_base_multiplies > MAX_SIMULATED_LEAVES:
                continue
            assert _counts(model) == _counts(dfs_io(n, M, name, base=base))
            compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("seed", range(40))
    def test_level_list_matches_simulation(self, seed):
        rng = random.Random(seed)
        while True:
            levels = [rng.choice(SQUARE_SCHEMES) for _ in range(rng.randint(1, 4))]
            if math.prod(get_scheme(s).t0 for s in levels) <= MAX_SIMULATED_LEAVES:
                break
        n = rng.choice([1, 2, 3]) * math.prod(get_scheme(s).n0 for s in levels)
        M = rng.choice([3, 12, 27, 48, 192])
        try:
            model = nonstationary_io(n, M, levels)
        except ValueError:
            with pytest.raises(ValueError):
                dfs_io(n, M, levels)
            return
        assert _counts(model) == _counts(dfs_io(n, M, levels))

    def test_mixed_list_reaches_deeper_than_needed_levels(self):
        # levels beyond the base are unused, in the model and the simulation
        levels = ["strassen", "classical2", "winograd", "strassen"]
        model = nonstationary_io(16, 48, levels)
        assert model.n_base_multiplies == 7 * 8
        assert _counts(model) == _counts(dfs_io(16, 48, levels))

    def test_simulator_rejects_base_with_level_list(self):
        with pytest.raises(ValueError, match="base"):
            dfs_io(16, 48, ["strassen", "classical2"], base=4)
