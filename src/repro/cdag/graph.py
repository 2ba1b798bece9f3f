"""The computation-DAG (CDAG) data structure.

The paper models an algorithm's computation as a DAG with a vertex per input
element / arithmetic operation and an edge per direct dependency (§1.2, §3.1).
This module provides an immutable, numpy-backed representation sized for the
graphs we actually build: ``Dec_k C`` has ``Θ(7^k)`` vertices, so ``k`` up to
7 (~1M vertices) must stay cheap.  Adjacency is stored as flat edge arrays
plus lazily-built CSR indices; all per-vertex statistics are vectorized.

Conventions from the paper that the structure implements directly:

* **Undirected view** (§3.3, footnote 11): expansion arguments treat edges as
  undirected; ``edge_boundary`` and the expansion code work on the
  undirected simple graph.
* **Loop regularization** (§2.0.2): a non-regular graph of max degree ``d``
  is made ``d``-regular by adding loops, a loop adding 1 to the degree.
  Loops never contribute to any edge boundary, so the structure only records
  the *regular degree*; no physical loop edges are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["VertexKind", "CDAG"]


def _gather_ranges(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + counts[i]]`` for all ``i``.

    The vectorized multi-slice gather used by the frontier-peeling loops:
    builds the flat index ``starts[i] + j`` for every in-range ``j`` with
    ``repeat``/``cumsum`` arithmetic instead of a Python loop over rows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return values[:0]
    rep_starts = np.repeat(starts, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return values[rep_starts + within]


class VertexKind:
    """Integer codes for vertex roles (stored in ``CDAG.kinds`` as int8)."""

    INPUT = 0      # an input element (no predecessors)
    ADD = 1        # a linear arithmetic op (addition/subtraction/scaling)
    MULT = 2       # a scalar multiplication joining the two encodings
    OUTPUT = 3     # an output element (also an arithmetic op vertex)

    NAMES = {INPUT: "input", ADD: "add", MULT: "mult", OUTPUT: "output"}


@dataclass(frozen=True)
class CDAG:
    """Immutable computation DAG.

    Parameters
    ----------
    n_vertices:
        Number of vertices, numbered ``0 .. n_vertices-1``.
    src, dst:
        Edge arrays: directed edge ``src[i] -> dst[i]`` (dependency flows
        from producer to consumer, "edges going up" in a total order, §3.2).
    kinds:
        int8 array of :class:`VertexKind` codes, one per vertex.
    levels:
        Optional layer index per vertex for layered graphs (``Dec_k C`` is
        layered by recursion step, §4.1.2).  -1 when not layered.
    """

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    kinds: np.ndarray
    levels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "kinds", np.asarray(self.kinds, dtype=np.int8))
        if self.levels is None:
            object.__setattr__(
                self, "levels", np.full(self.n_vertices, -1, dtype=np.int32)
            )
        else:
            object.__setattr__(
                self, "levels", np.asarray(self.levels, dtype=np.int32)
            )
        if len(self.kinds) != self.n_vertices:
            raise ValueError("kinds must have one entry per vertex")
        if len(self.src) != len(self.dst):
            raise ValueError("src/dst length mismatch")
        if len(self.src) and (
            self.src.min() < 0
            or self.dst.min() < 0
            or self.src.max() >= self.n_vertices
            or self.dst.max() >= self.n_vertices
        ):
            raise ValueError("edge endpoint out of range")
        if np.any(self.src == self.dst):
            raise ValueError("self-loops are not allowed in a CDAG")

    # ------------------------------------------------------------------ #
    # basic statistics                                                    #
    # ------------------------------------------------------------------ #

    @property
    def n_edges(self) -> int:
        """Number of directed edges."""
        return len(self.src)

    @cached_property
    def in_degree(self) -> np.ndarray:
        """In-degree per vertex (number of operands; ≤ 2 for binary-op CDAGs)."""
        return np.bincount(self.dst, minlength=self.n_vertices).astype(np.int64)

    @cached_property
    def out_degree(self) -> np.ndarray:
        """Out-degree per vertex (number of consumers; unbounded in general, §3.1)."""
        return np.bincount(self.src, minlength=self.n_vertices).astype(np.int64)

    @cached_property
    def degree(self) -> np.ndarray:
        """Total (undirected) degree per vertex, counting multi-edges once."""
        u, v = self.undirected_edges
        d = np.bincount(u, minlength=self.n_vertices)
        d += np.bincount(v, minlength=self.n_vertices)
        return d.astype(np.int64)

    @property
    def max_degree(self) -> int:
        """Maximum undirected degree — the ``d`` used for loop regularization."""
        return int(self.degree.max()) if self.n_vertices else 0

    @cached_property
    def inputs(self) -> np.ndarray:
        """Vertices with no incoming edges (graph sources)."""
        return np.flatnonzero(self.in_degree == 0)

    @cached_property
    def outputs(self) -> np.ndarray:
        """Vertices with no outgoing edges (graph sinks)."""
        return np.flatnonzero(self.out_degree == 0)

    def count_kind(self, kind: int) -> int:
        """Number of vertices with the given :class:`VertexKind` code."""
        return int(np.count_nonzero(self.kinds == kind))

    # ------------------------------------------------------------------ #
    # undirected view                                                     #
    # ------------------------------------------------------------------ #

    def _undirected_simple_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated undirected edges as (u, v) with u < v, key-sorted.

        One argsort of the composite key followed by a flag-diff dedup (keep
        the first of each run of equal keys) — same output as ``np.unique``
        on the key, without its second sort-and-gather pass or the
        ``return_index`` temporary.  Every undirected consumer (``degree``,
        ``adjacency``, the expansion kernels) goes through the cached
        :attr:`undirected_edges`, so this runs exactly once per graph.
        """
        if self.n_edges == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        u = np.minimum(self.src, self.dst)
        v = np.maximum(self.src, self.dst)
        key = u * self.n_vertices + v
        key.sort(kind="stable")  # key is a fresh temporary: sort in place
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        uniq = key[keep]
        return uniq // self.n_vertices, uniq % self.n_vertices

    @cached_property
    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Public accessor for the deduplicated undirected edge list."""
        return self._undirected_simple_edges()

    @cached_property
    def adjacency_bits(self) -> np.ndarray:
        """Bitset-packed undirected adjacency: an ``(n, ⌈n/64⌉)`` uint64 array.

        Row ``i`` holds the neighborhood of vertex ``i`` as packed words
        (bit ``j`` of word ``j // 64`` set iff ``{i, j}`` is an edge), so the
        exact-expansion kernels intersect neighborhoods with word-ANDs and
        popcounts instead of scanning the edge list.
        """
        n = self.n_vertices
        words = max(1, -(-n // 64))
        bits = np.zeros((n, words), dtype=np.uint64)
        u, v = self.undirected_edges
        np.bitwise_or.at(bits, (u, v >> 6), np.uint64(1) << (v & 63).astype(np.uint64))
        np.bitwise_or.at(bits, (v, u >> 6), np.uint64(1) << (u & 63).astype(np.uint64))
        return bits

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix of the undirected simple graph."""
        import scipy.sparse as sp

        u, v = self.undirected_edges
        n = self.n_vertices
        data = np.ones(2 * len(u), dtype=np.float64)
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def edge_boundary_size(self, mask: np.ndarray) -> int:
        """``|E(S, V\\S)|`` in the undirected simple graph for ``S = mask``.

        ``mask`` is a boolean array over vertices.  Loops added by
        regularization never cross a cut, so they are correctly ignored.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_vertices,):
            raise ValueError("mask must be a boolean vector over vertices")
        u, v = self.undirected_edges
        return int(np.count_nonzero(mask[u] != mask[v]))

    def is_connected_undirected(self) -> bool:
        """Connectivity of the undirected view (assumption §5.1.1 checks this)."""
        if self.n_vertices <= 1:
            return True
        from scipy.sparse.csgraph import connected_components

        ncomp, _ = connected_components(self.adjacency, directed=False)
        return ncomp == 1

    # ------------------------------------------------------------------ #
    # DAG structure                                                       #
    # ------------------------------------------------------------------ #

    @cached_property
    def _out_adjacency_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-adjacency in CSR form: ``(indptr, successors)``.

        Multi-edges are kept (one entry per directed edge) so that in-degree
        decrements during frontier peeling stay exact.
        """
        counts = np.bincount(self.src, minlength=self.n_vertices)
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.src, kind="stable")
        return indptr, self.dst[order]

    @cached_property
    def topological_generations(self) -> list[np.ndarray]:
        """Vertices grouped by longest-path depth (vectorized Kahn peeling).

        Generation ``t`` holds exactly the vertices whose longest path from a
        source has ``t`` edges: a vertex's in-degree reaches zero in the round
        after its last predecessor was peeled.  Raises on directed cycles.
        """
        indptr, successors = self._out_adjacency_flat
        indeg = self.in_degree.copy()
        frontier = np.flatnonzero(indeg == 0)
        generations: list[np.ndarray] = []
        seen = 0
        while frontier.size:
            generations.append(frontier)
            seen += frontier.size
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            succ = _gather_ranges(successors, starts, counts)
            if succ.size == 0:
                break
            dec = np.bincount(succ, minlength=self.n_vertices)
            indeg -= dec
            frontier = np.flatnonzero((dec > 0) & (indeg == 0))
        if seen != self.n_vertices:
            raise ValueError("graph has a directed cycle")
        return generations

    @cached_property
    def topological_order(self) -> np.ndarray:
        """A topological order (concatenated topological generations)."""
        if self.n_vertices == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.topological_generations)

    @cached_property
    def longest_path_level(self) -> np.ndarray:
        """Longest-path depth of each vertex from the sources (0 for inputs)."""
        depth = np.zeros(self.n_vertices, dtype=np.int64)
        if self.n_edges == 0:
            return depth
        indptr, successors = self._out_adjacency_flat
        for gen in self.topological_generations:
            starts = indptr[gen]
            counts = indptr[gen + 1] - starts
            succ = _gather_ranges(successors, starts, counts)
            if succ.size:
                np.maximum.at(depth, succ, np.repeat(depth[gen] + 1, counts))
        return depth

    # ------------------------------------------------------------------ #
    # derived graphs                                                      #
    # ------------------------------------------------------------------ #

    def subgraph(self, vertices: np.ndarray) -> tuple["CDAG", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, mapping)`` where ``mapping[i]`` is the original index
        of the subgraph's vertex ``i``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(np.unique(vertices)) != len(vertices):
            raise ValueError(
                "subgraph vertices contain duplicates; the old->new vertex "
                "mapping would be corrupt"
            )
        keep = np.zeros(self.n_vertices, dtype=bool)
        keep[vertices] = True
        new_index = np.full(self.n_vertices, -1, dtype=np.int64)
        new_index[vertices] = np.arange(len(vertices))
        emask = keep[self.src] & keep[self.dst]
        sub = CDAG(
            n_vertices=len(vertices),
            src=new_index[self.src[emask]],
            dst=new_index[self.dst[emask]],
            kinds=self.kinds[vertices],
            levels=self.levels[vertices],
        )
        return sub, vertices

    def reversed(self) -> "CDAG":
        """The CDAG with every edge reversed (used by dominator analysis)."""
        return CDAG(
            n_vertices=self.n_vertices,
            src=self.dst.copy(),
            dst=self.src.copy(),
            kinds=self.kinds.copy(),
            levels=self.levels.copy(),
        )

    def as_networkx(self):
        """Directed networkx graph (small graphs only — O(V+E) python objects)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(
            (int(i), {"kind": VertexKind.NAMES[int(k)], "level": int(lvl)})
            for i, (k, lvl) in enumerate(zip(self.kinds, self.levels))
        )
        g.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        return g

    # ------------------------------------------------------------------ #
    # misc                                                                #
    # ------------------------------------------------------------------ #

    def validate_binary_ops(self) -> bool:
        """Check in-degree ≤ 2 everywhere (arithmetic ops are binary, §3.1)."""
        return bool(np.all(self.in_degree <= 2))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CDAG(V={self.n_vertices}, E={self.n_edges}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)}, "
            f"max_deg={self.max_degree})"
        )
