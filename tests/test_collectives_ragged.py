"""Batched collectives over groups that differ in size and in array shape.

Each round of ``shift_many``/``broadcast_many``/``reduce_many`` is one
``exchange_rows`` over every group's ranks; receivers must still hold each
array exactly as its sender held it.
"""

import numpy as np

from repro.machine.collectives import broadcast_many, reduce_many, shift_many
from repro.machine.distributed import Machine


def test_broadcast_many_groups_with_different_shapes():
    m = Machine(7)
    m.put_rows([1], "x", np.arange(3.0)[None])
    m.put_rows([5], "x", np.arange(8.0).reshape(1, 2, 4))
    broadcast_many(m, [([0, 1, 2], 1), ([3, 4, 5, 6], 5)], "x")
    for r in (0, 1, 2):
        assert np.array_equal(m.get_rows([r], "x")[0], np.arange(3.0))
    for r in (3, 4, 5, 6):
        assert np.array_equal(m.get_rows([r], "x")[0], np.arange(8.0).reshape(2, 4))
    assert m.log.n_supersteps == 2
    assert [m.mem_used(r) for r in range(7)] == [3, 3, 3, 8, 8, 8, 8]


def test_reduce_many_groups_with_different_shapes():
    m = Machine(6)
    arrays = [np.full(2, float(r)) for r in range(3)] + [np.full((3, 1), float(r)) for r in range(3, 6)]
    for r, a in enumerate(arrays):
        m.put_rows([r], "x", a[None])
    reduce_many(m, [([0, 1, 2], 2), ([3, 4, 5], 3)], "x", "sum")
    assert np.array_equal(m.get_rows([2], "sum")[0], np.full(2, 3.0))
    assert np.array_equal(m.get_rows([3], "sum")[0], np.full((3, 1), 12.0))
    assert list(m.flops) == [0, 0, 4, 6, 0, 0]
    # every rank keeps its own operand; only the roots gain the sum
    assert [m.mem_used(r) for r in range(6)] == [2, 2, 4, 6, 3, 3]


def test_shift_many_groups_of_different_sizes():
    m = Machine(5)
    for r in range(5):
        m.put_rows([r], "x", np.full((1, r + 1), float(r)))
    shift_many(m, [[0, 1], [2, 3, 4]], "x", 1)
    assert [float(m.get_rows([r], "x")[0][0]) for r in range(5)] == [1.0, 0.0, 4.0, 2.0, 3.0]
    assert [m.get_rows([r], "x")[0].size for r in range(5)] == [2, 1, 5, 3, 4]
    assert m.log.n_supersteps == 1 and m.critical_words == 9
