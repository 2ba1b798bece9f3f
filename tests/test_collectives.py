"""Tests for collectives: correctness on all group shapes + cost sanity.

The single-group properties (binomial tree, shift) run through the batched
forms with one group, which is how the algorithms call them.
"""

import math

import numpy as np
import pytest

from repro.machine.collectives import broadcast_many, reduce_many, shift_many
from repro.machine.distributed import Machine

GROUP_SIZES = [2, 3, 4, 5, 7, 8]


def _machine_with(group, key, arrays):
    m = Machine(max(group) + 1)
    m.put_rows(group, key, np.array(arrays))
    return m


@pytest.mark.parametrize("g", GROUP_SIZES)
class TestBroadcast:
    def test_everyone_receives(self, g, rng):
        group = list(range(1, g + 1))
        data = rng.random(6)
        m = Machine(g + 2)
        root = group[g // 2]
        m.put_rows([root], "x", data[None])
        broadcast_many(m, [(group, root)], "x")
        for r in group:
            assert np.array_equal(m.get_rows([r], "x")[0], data)

    def test_round_count_logarithmic(self, g, rng):
        group = list(range(g))
        m = Machine(g)
        m.put_rows([0], "x", rng.random(4)[None])
        broadcast_many(m, [(group, 0)], "x")
        assert m.log.n_supersteps == math.ceil(math.log2(g))

    def test_critical_words_per_round(self, g, rng):
        group = list(range(g))
        m = Machine(g)
        m.put_rows([0], "x", rng.random(10)[None])
        broadcast_many(m, [(group, 0)], "x")
        # each round a rank sends and/or receives one 10-word block
        assert m.critical_words <= 20 * math.ceil(math.log2(g))


@pytest.mark.parametrize("g", GROUP_SIZES)
class TestReduce:
    def test_sum_at_root(self, g, rng):
        group = list(range(g))
        arrays = [rng.random(5) for _ in range(g)]
        m = _machine_with(group, "x", arrays)
        reduce_many(m, [(group, 0)], "x", "sum")
        assert np.allclose(m.get_rows([0], "sum")[0], sum(arrays))

    def test_nonzero_root(self, g, rng):
        group = list(range(g))
        arrays = [rng.random(5) for _ in range(g)]
        m = _machine_with(group, "x", arrays)
        root = group[-1]
        reduce_many(m, [(group, root)], "x", "sum")
        assert np.allclose(m.get_rows([root], "sum")[0], sum(arrays))

    def test_reduction_flops_charged(self, g, rng):
        group = list(range(g))
        m = _machine_with(group, "x", [rng.random(5) for _ in range(g)])
        reduce_many(m, [(group, 0)], "x", "sum")
        assert m.flops.sum() == 5 * (g - 1)


@pytest.mark.parametrize("g", GROUP_SIZES)
class TestShift:
    def test_cyclic_rotation(self, g):
        group = list(range(g))
        m = _machine_with(group, "x", [np.full(2, float(i)) for i in range(g)])
        shift_many(m, [group], "x", 1)
        for i in range(g):
            assert np.allclose(m.get_rows([group[(i + 1) % g]], "x")[0], float(i))

    def test_negative_offset(self, g):
        group = list(range(g))
        m = _machine_with(group, "x", [np.full(2, float(i)) for i in range(g)])
        shift_many(m, [group], "x", -1)
        for i in range(g):
            assert np.allclose(m.get_rows([group[(i - 1) % g]], "x")[0], float(i))


def _total_words(m):
    """Aggregate words moved over all supersteps (sender side)."""
    return m.log.total_words


def _total_messages(m):
    """Aggregate point-to-point messages (each is counted at src and dst)."""
    return sum(sum(s.msgs.values()) for s in m.log.steps) // 2


@pytest.mark.parametrize("g", GROUP_SIZES)
class TestCounterInvariants:
    """Words/messages of each collective match its closed-form cost.

    The costs are *derived* from the executed message pattern; these tests
    pin them to the textbook formulas so a regression in the round structure
    (an extra round, a duplicated send) cannot pass silently.
    """

    X = 12  # payload words; divisible by every group size's slab count

    def test_broadcast_moves_g_minus_1_payloads(self, g, rng):
        group = list(range(g))
        m = Machine(g)
        m.put_rows([0], "x", rng.random(self.X)[None])
        broadcast_many(m, [(group, 0)], "x")
        # binomial tree: every non-root receives the payload exactly once
        assert _total_words(m) == (g - 1) * self.X
        assert _total_messages(m) == g - 1

    def test_reduce_moves_g_minus_1_partials(self, g, rng):
        group = list(range(g))
        m = _machine_with(group, "x", [rng.random(self.X) for _ in range(g)])
        reduce_many(m, [(group, 0)], "x", "sum")
        # mirror of broadcast: each non-root's partial travels exactly once
        assert _total_words(m) == (g - 1) * self.X
        assert _total_messages(m) == g - 1
        assert int(m.flops.sum()) == (g - 1) * self.X

    def test_words_sent_equal_words_received(self, g, rng):
        group = list(range(g))
        m = _machine_with(group, "x", [rng.random(self.X) for _ in range(g)])
        broadcast_many(m, [(group, g // 2)], "x")
        reduce_many(m, [(group, 0)], "x", "sum")
        shift_many(m, [group], "x", 1)
        assert m.log.n_supersteps > 0
        for s in m.log.steps:
            assert sum(s.sent.values()) == sum(s.recv.values())


class TestAssertDisjoint:
    """Batched collectives must reject overlapping groups."""

    def _machine(self, p=6):
        m = Machine(p)
        m.put_rows(range(p), "x", np.zeros((p, 2)))
        return m

    def test_broadcast_many_rejects_overlap(self):
        m = self._machine()
        with pytest.raises(ValueError, match="disjoint"):
            broadcast_many(m, [([0, 1, 2], 0), ([2, 3, 4], 2)], "x")

    def test_reduce_many_rejects_overlap(self):
        m = self._machine()
        with pytest.raises(ValueError, match="disjoint"):
            reduce_many(m, [([0, 1], 0), ([1, 2], 1)], "x")

    def test_shift_many_rejects_duplicate_within_group(self):
        m = self._machine()
        with pytest.raises(ValueError, match="disjoint"):
            shift_many(m, [[0, 1, 1]], "x", 1)

    def test_disjoint_groups_accepted(self):
        m = self._machine()
        broadcast_many(m, [([0, 1, 2], 0), ([3, 4, 5], 3)], "x")  # no raise


class TestBatchedVariants:
    def test_shift_many_single_superstep(self, rng):
        m = Machine(8)
        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        for grp in groups:
            m.put_rows(grp, "x", np.arange(4.0)[:, None] * np.ones(3))
        shift_many(m, groups, "x", 1)
        assert m.log.n_supersteps == 1

    def test_shift_many_rejects_overlap(self):
        m = Machine(4)
        m.put_rows(range(4), "x", np.zeros((4, 1)))
        with pytest.raises(ValueError, match="disjoint"):
            shift_many(m, [[0, 1], [1, 2]], "x", 1)

    def test_broadcast_many_matches_single(self, rng):
        data = [rng.random(5), rng.random(5)]
        m = Machine(8)
        m.put_rows([0, 4], "x", np.array(data))
        broadcast_many(m, [([0, 1, 2, 3], 0), ([4, 5, 6, 7], 4)], "x")
        for r in range(4):
            assert np.array_equal(m.get_rows([r], "x")[0], data[0])
        for r in range(4, 8):
            assert np.array_equal(m.get_rows([r], "x")[0], data[1])
        assert m.log.n_supersteps == 2  # lg 4 rounds, shared across groups

    def test_reduce_many_matches_single(self, rng):
        m = Machine(6)
        arrays = [rng.random(4) for _ in range(6)]
        m.put_rows(range(6), "x", np.array(arrays))
        reduce_many(m, [([0, 1, 2], 0), ([3, 4, 5], 3)], "x", "sum")
        assert np.allclose(m.get_rows([0], "sum")[0], sum(arrays[:3]))
        assert np.allclose(m.get_rows([3], "sum")[0], sum(arrays[3:]))

    def test_reduce_many_mixed_group_sizes(self, rng):
        m = Machine(7)
        arrays = [rng.random(4) for _ in range(7)]
        m.put_rows(range(7), "x", np.array(arrays))
        reduce_many(m, [([0, 1], 0), ([2, 3, 4, 5, 6], 2)], "x", "sum")
        assert np.allclose(m.get_rows([0], "sum")[0], arrays[0] + arrays[1])
        assert np.allclose(m.get_rows([2], "sum")[0], sum(arrays[2:]))
