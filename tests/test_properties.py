"""Property-based tests (hypothesis) on the core invariants.

These guard the *laws* the rest of the reproduction leans on: cut symmetry,
bound monotonicity, scheme-recursion correctness on arbitrary integer
matrices, conservation in the machines, and order-independence of the
partition argument's soundness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.strassen import bilinear_multiply
from repro.cdag.graph import CDAG
from repro.cdag.pebble import schedule_io
from repro.cdag.schedule import is_topological, random_topological_order
from repro.cdag.strassen_cdag import dec_graph
from repro.core.bounds import parallel_io_bound, sequential_io_bound
from repro.core.partition import best_partition_bound, segment_stats
from repro.machine.distributed import Machine

# ----------------------------------------------------------------------- #
# random DAG strategy: a numbered DAG with edges i -> j only for i < j     #
# ----------------------------------------------------------------------- #


@st.composite
def dags(draw, max_n=12):
    n = draw(st.integers(min_value=3, max_value=max_n))
    edges = []
    for j in range(1, n):
        # every non-source vertex gets 1..2 predecessors among earlier ids
        k = draw(st.integers(min_value=1, max_value=min(2, j)))
        preds = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        edges.extend((p, j) for p in preds)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return CDAG(n, src, dst, np.zeros(n, dtype=np.int8))


class TestGraphProperties:
    @given(dags())
    @settings(max_examples=40, deadline=None)
    def test_cut_symmetry(self, g):
        rng = np.random.default_rng(0)
        mask = rng.random(g.n_vertices) < 0.5
        assert g.edge_boundary_size(mask) == g.edge_boundary_size(~mask)

    @given(dags())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_is_topological(self, g):
        assert is_topological(g, g.topological_order)

    @given(dags(), st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_random_orders_are_topological(self, g, seed):
        assert is_topological(g, random_topological_order(g, seed=seed))

    @given(dags())
    @settings(max_examples=30, deadline=None)
    def test_degree_sum_is_twice_edges(self, g):
        u, v = g.undirected_edges
        assert g.degree.sum() == 2 * len(u)


class TestPartitionProperties:
    @given(dags(), st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=99))
    @settings(max_examples=30, deadline=None)
    def test_partition_sound_for_any_order(self, g, M, seed):
        # M >= 3: a binary op needs both operands plus its result resident
        order = random_topological_order(g, seed=seed)
        measured = schedule_io(g, order, M=M, policy="belady").total
        bound, _ = best_partition_bound(g, order, M)
        assert bound <= measured

    @given(dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_segment_reads_bounded_by_predecessors(self, g, s):
        order = g.topological_order
        stats = segment_stats(g, order, s)
        assert stats.reads.sum() <= g.n_edges
        assert stats.writes.sum() <= g.n_vertices


class TestSchemeProperties:
    @given(
        st.sampled_from(["strassen", "winograd", "classical2"]),
        st.integers(min_value=-5, max_value=5),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_recursion_exact_on_random_integer_matrices(self, name, shift, data):
        n = 8
        vals = st.integers(min_value=-4, max_value=4)
        A = np.array(
            data.draw(st.lists(vals, min_size=n * n, max_size=n * n))
        ).reshape(n, n).astype(float) + shift
        B = np.array(
            data.draw(st.lists(vals, min_size=n * n, max_size=n * n))
        ).reshape(n, n).astype(float)
        C = bilinear_multiply(A, B, name, cutoff=2)
        assert np.array_equal(C, A @ B)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_dec_level_mass_invariant(self, k):
        # the top level always holds between 3/7 and 3/7 · 1/(1-(4/7)^(k+1))
        # of the vertices (Fact 4.6, exact-geometric-sum form)
        g = dec_graph("strassen", k)
        frac = 7**k / g.n_vertices
        lo = 3 / 7
        hi = lo / (1 - (4 / 7) ** (k + 1))
        assert lo - 1e-12 <= frac <= hi + 1e-12


class TestBoundProperties:
    @given(
        st.integers(min_value=16, max_value=4096),
        st.integers(min_value=12, max_value=2048),
        st.floats(min_value=2.1, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequential_bound_monotone_in_n(self, n, M, w):
        assert sequential_io_bound(2 * n, M, w) >= sequential_io_bound(n, M, w)

    @given(
        st.integers(min_value=64, max_value=4096),
        st.integers(min_value=12, max_value=512),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_parallel_bound_decreases_in_p(self, n, M, p):
        assert parallel_io_bound(n, M, 2 * p) <= parallel_io_bound(n, M, p)

    @given(
        st.integers(min_value=256, max_value=8192),
        st.floats(min_value=2.1, max_value=2.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_smaller_omega_needs_less_io(self, n, w):
        M = 64
        if (n / 8) ** 0.1 > 0:  # guard: always true, keeps strategy simple
            assert sequential_io_bound(n, M, w) <= sequential_io_bound(n, M, 3.0) + 1e-9


class TestMachineProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_exchange_conservation(self, pairs, words):
        m = Machine(6)
        src, dst = zip(*pairs)
        m.exchange_rows(src, dst, "k", np.zeros((len(pairs), words)))
        if m.log.steps:
            step = m.log.steps[-1]
            assert sum(step.sent.values()) == sum(step.recv.values())
            assert m.log.step_words[-1].max() <= sum(step.sent.values()) + sum(step.recv.values())

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_memory_peak_dominates_usage(self, p, size):
        m = Machine(p)
        m.put_rows([0], "x", np.zeros((1, size)))
        m.put_rows([0], "y", np.zeros((1, size)))
        m.delete_rows([0], "x")
        assert m.mem_peak[0] >= m.mem_used(0)
        assert m.mem_peak[0] == 2 * size
