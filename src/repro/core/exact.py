"""Exact edge-expansion engine v2 — bitset kernels and a sharded subset search.

The paper's ground truth for Lemma 4.3 / Corollary 4.4 is *exact* edge
expansion (Eq. 4) and exact small-set expansion ``h_s`` (Eq. 5).  The seed
enumerator materialized every subset mask and paid an O(E)-wide vectorized
boundary comparison per subset, which capped exact solves at 22 vertices.
This module rebuilds the machinery around four composable ideas:

* **Bitset-packed adjacency** — every vertex's undirected neighborhood is a
  row of packed ``uint64`` words (:attr:`repro.cdag.graph.CDAG.adjacency_bits`),
  so set intersections are word-ANDs + popcounts instead of fancy-indexed
  comparisons over the edge list.

* **Incremental (Gray-style) enumeration** — subsets are never re-scored
  from scratch.  Each leaf of the search builds its boundary table with the
  binary-reflected doubling recurrence (each doubling step flips exactly one
  vertex into every previously enumerated subset — the batched form of a
  Gray-code walk, costing O(1) amortized words per subset), and keeps only
  the subsets that pass ``boundary <= floor(h_best·d·|U|) + 1``.

* **Prefix-sharded parallel search** — the subset space splits into
  prefix-fixed spans (the vertices ``>= b = min(n, 16)`` fixed; the search
  enters only the branches whose prefixes meet its span).  Spans are
  independent, so they fan out over a ``spawn`` process pool with a shared
  running minimum for cross-shard pruning; the merge is a deterministic
  lexicographic ``(h, mask)`` reduction, so results are identical for
  every ``jobs`` value.

* **Size-aware branch-and-bound** — both kernels run one depth-first
  search and prune it with one sound bound.  Let ``I`` be a decided-in
  set (``k = |I|``), ``O`` a decided-out set and ``F`` the free vertices,
  with ``a_v = |N(v)∩I|`` and ``o_v = |N(v)∩O|`` for ``v ∈ F``.  Every
  ``U = I ∪ S`` with ``S ⊆ F``, ``|S| = s`` has boundary ``cut(I, O) +
  Σ_{v∈F} a_v + Σ_{v∈S} (o_v − a_v) + e(S, F∖S)``, and the last term is
  ``≥ 0``; so it is at least ``cut(I, O) + Σ_F a_v`` plus the ``s``
  smallest ``o_v − a_v``.  When no ``s ≤ min(|F|, limit − k)`` meets the
  integer threshold ``floor(h_best·d·(k+s)) + 1`` (the +1 keeps exact
  ties), no subset under the node can tie or beat ``h_best``: skipping it
  changes no candidate, and ``(h, mask)`` stays bit-identical.  The
  search decides vertices ``n−1`` down to ``w = min(b, 8)``, out before
  in, applies the bound at every node and sweeps only the ``2^w`` subsets
  under each surviving leaf: in C in the native kernel, in numpy in
  :func:`_scan_span`.

Exact ``h_s`` additionally gets a *size-restricted combinatorial walk*: only
the ``C(n, ≤s)`` subsets of size at most ``s`` are visited (Gosper
successor + one incremental flip per step in the scalar backend), which
makes ``h_s`` of a 40-vertex graph a few thousand evaluations instead of a
``2^40`` enumeration.

A fourth backend pushes the same scan to native speed: ``backend="native"``
runs the prefix-sharded depth-first search inside a small C kernel
(:mod:`repro.core._native`, one ``.c`` file compiled with the system
compiler at first use and loaded through ``ctypes``).  It is auto-selected
whenever the compiled library is importable and the graph fits in packed
single-word rows (n ≤ 64); when the compiler is missing or ``REPRO_NATIVE=0``
is set, everything silently falls back to the numpy bitset kernels — the
native path is a pure accelerator, never a dependency, and its ``(h, mask)``
results are bit-identical to the bitset backend's for every ``jobs`` value.

Together these lift the exactly-solvable regime from 22 (seed) to
:data:`DEFAULT_EXACT_LIMIT` = 32 vertices on either backend (override with
the ``REPRO_EXACT_LIMIT`` environment variable or the ``limit=``
parameter).  All kernels return results bit-identical to the seed
enumerator: the same ``h`` float and the *smallest* minimizing subset
mask.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
import os
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.cdag.graph import CDAG
from repro.core import _native

if TYPE_CHECKING:
    from repro.engine.pool import SharedMinimum

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "COMB_SUBSET_LIMIT",
    "EXACT_BACKENDS",
    "effective_exact_limit",
    "native_backend_available",
    "exact_edge_expansion_v2",
    "exact_small_set_expansion_v2",
]

#: The policy-selected enumeration ceiling.  The 32-vertex circulant graph
#: (2^32 subsets) solves in ~2 ms through the native kernel's depth-first
#: branch-and-bound and in ~0.1 s through the numpy port of the same search,
#: one process on a 2-core x86-64 host (raise/lower via REPRO_EXACT_LIMIT for
#: the machine at hand).
DEFAULT_EXACT_LIMIT = 32


def effective_exact_limit() -> int:
    """The enumeration ceiling in force *right now*.

    The only reader of ``REPRO_EXACT_LIMIT``: it reads the variable on every
    call, so policy decisions — and the cache keys derived from them — track
    the environment a test or sweep set after this module was first
    imported.  Every public entry point also accepts an explicit ``limit=``.
    """
    return int(os.environ.get("REPRO_EXACT_LIMIT", DEFAULT_EXACT_LIMIT))

#: Most subsets the size-restricted walk will visit (C(n, ≤s) must fit).
COMB_SUBSET_LIMIT = 1 << 24

#: The selectable enumeration backends (``"auto"`` picks native when the
#: compiled kernel is importable, bitset otherwise).
EXACT_BACKENDS = ("auto", "native", "bitset")

#: The native kernel packs each adjacency row into one uint64 word.
_NATIVE_MAX_VERTICES = 64


def native_backend_available() -> bool:
    """True when the compiled C kernel can back ``backend="native"`` runs."""
    return _native.native_available()

#: Prefix width: spans split the subset space by fixing the vertices
#: ``>= b = min(n, _LOW_BITS)`` (bit ``j`` of a prefix is vertex ``b + j``),
#: which leaves 2^(n-16) prefixes to shard across processes.
_LOW_BITS = 16

#: Leaf width of the branch-and-bound: both kernels decide vertices down to
#: ``w = min(b, _LEAF_BITS)`` and sweep the ``2^w`` subsets of the vertices
#: below ``w`` in one doubling pass.
_LEAF_BITS = 8

#: Threshold ceiling, as ``THR_CLIP`` in ``exactscan.c``: it lies above every
#: boundary, so a clipped threshold (an infinite cap) accepts every subset.
_THR_CLIP = 1 << 28


def _ints_from_rows(rows: np.ndarray) -> list[int]:
    """Per-vertex undirected neighborhoods as arbitrary-width Python ints.

    ``rows`` are packed uint64 words, one row per vertex: a graph's
    :attr:`CDAG.adjacency_bits` (computed once per graph and shared by every
    kernel), or the same rows read back from a pool task's shared memory.
    """
    out = []
    for row in rows:
        acc = 0
        for j in range(len(row) - 1, -1, -1):
            acc = (acc << 64) | int(row[j])
        out.append(acc)
    return out


def _mask_to_bool(mask: int, n: int) -> np.ndarray:
    bits = np.zeros(n, dtype=bool)
    v = mask
    while v:
        low = v & -v
        bits[low.bit_length() - 1] = True
        v ^= low
    return bits


# ---------------------------------------------------------------------- #
# the depth-first branch-and-bound (numpy kernel)                         #
# ---------------------------------------------------------------------- #


def _low_tables(adj: list[int], deg: list[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, cut)`` over the ``2^width`` subsets ``L`` of vertices
    ``0..width-1``: ``|L|`` and ``vol(L) - 2·e(L)``, both int32.

    Built by the doubling recurrence: step ``v`` extends the tables by
    flipping vertex ``v`` into every subset enumerated so far (the batched
    Gray-code update), so each entry costs O(1).
    """
    n_sub = 1 << width
    sizes = np.zeros(n_sub, dtype=np.int32)
    cut = np.zeros(n_sub, dtype=np.int32)
    for v in range(width):
        half = 1 << v
        # |N(v) ∩ L'| over the subsets L' ⊆ {0..v-1} enumerated so far
        inter = np.zeros(half, dtype=np.int32)
        row = adj[v]
        for u in range(v):
            q = 1 << u
            if (row >> u) & 1:
                np.add(inter[:q], 1, out=inter[q : 2 * q])
            else:
                inter[q : 2 * q] = inter[:q]
        np.add(sizes[:half], 1, out=sizes[half : 2 * half])
        np.add(cut[:half], deg[v], out=cut[half : 2 * half])
        cut[half : 2 * half] -= 2 * inter
    return sizes, cut


@dataclass(frozen=True)
class _SearchCtx:
    """What a span scan reads, for either kernel (built once per process).

    Both kernels decide vertices ``n-1 .. w`` by branch-and-bound and sweep
    the ``2^w`` subsets of vertices ``0..w-1`` at each surviving leaf from
    the leaf's size / internal cut tables.  Prefixes number the vertices
    ``>= b``.
    """

    n: int
    b: int
    w: int
    limit: int
    d: int
    adj: list[int]  # per-vertex neighbourhood as a Python int (any n)
    low_cut: np.ndarray  # (2^w,) int32: vol(J) - 2 e(J)
    low_sizes: np.ndarray  # (2^w,) uint8: |J|


def _search_ctx(adj: list[int], deg: list[int], d: int, n: int, limit: int) -> _SearchCtx:
    b = min(n, _LOW_BITS)
    w = min(b, _LEAF_BITS)
    sizes, cut = _low_tables(adj, deg, w)
    return _SearchCtx(
        n=n,
        b=b,
        w=w,
        limit=limit,
        d=d,
        adj=adj,
        low_cut=cut,
        low_sizes=sizes.astype(np.uint8),
    )


def _n_prefixes(n: int) -> int:
    """How many prefixes (fixings of the vertices ``>= min(n, _LOW_BITS)``)
    split an ``n``-vertex subset space into spans."""
    return 1 << (n - min(n, _LOW_BITS))


def _seed_singletons(deg: list[int], d: int) -> tuple[float, int]:
    """The best singleton cut — a real enumeration candidate that seeds the
    running minimum so branch-and-bound prunes from the very first chunk."""
    best_r, best_m = math.inf, 0
    for v, dv in enumerate(deg):
        r = dv / d
        if r < best_r:
            best_r, best_m = r, 1 << v
    return best_r, best_m


def _scan_span(
    ctx: _SearchCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared: SharedMinimum | None = None,
) -> tuple[float, int]:
    """Scan prefixes ``[p_lo, p_hi)``; returns the lexicographic best
    ``(h, mask)`` including the incoming ``best``.

    The same search as ``repro_exact_scan`` in ``exactscan.c`` (its header
    states the node state, the bound and the leaf sweep), with each leaf's
    ``2^w`` subsets swept in numpy.  ``shared`` is an optional cross-process
    running minimum: it tightens the pruning threshold but never affects
    which candidate wins — the final reduction is by ``(h, mask)``.
    """
    n, b, w, limit, d = ctx.n, ctx.b, ctx.w, ctx.limit, ctx.d
    low_cut = ctx.low_cut.astype(np.int64)
    sizes = ctx.low_sizes.astype(np.int64)
    # v's neighbours below v: the free vertices a decision on v updates
    below = [[u for u in range(v) if (ctx.adj[v] >> u) & 1] for v in range(n)]
    a = [0] * n  # |N(v) ∩ I| per free vertex v
    o = [0] * n  # |N(v) ∩ O| per free vertex v
    # T[J] = base - 2 Σ_{v∈J} a_v over the leaf subsets J, built by the
    # doubling pass: level v writes T[2^v + i] = T[i] - 2 a_v.
    T = np.empty(1 << w, dtype=np.int64)
    levels = [(T[: 1 << v], T[1 << v : 2 << v]) for v in range(w)]
    best_r, best_m = best
    h_cap = math.nan  # the cap behind thr; NaN: none built yet
    thr: list[int] = []
    rows: dict[int, np.ndarray] = {}  # thr[k + |J|] over the leaf, per k

    def refresh_cap() -> None:
        # Pick up a tighter running minimum (ours or another process's).
        nonlocal h_cap, thr
        cap = best_r if shared is None else min(best_r, shared.value)
        if cap == h_cap:
            return
        h_cap = cap
        # floor(h_cap·d·s) + 1 by total size s; -1 for the empty set and
        # past the limit.  An infinite cap clips (no floor of inf).
        thr = [-1] * (n + 1)
        for s in range(1, min(limit, n) + 1):
            t = cap * d * s
            thr[s] = math.floor(t) + 1 if t < _THR_CLIP else _THR_CLIP
        rows.clear()

    def survives(t: int, k: int, base: int) -> bool:
        # Does some s ≤ min(t, limit - k) have LB(s) ≤ thr[k + s]?  ``base``
        # is cut(I, O) + Σ_{v<t} a_v.
        if k > limit:
            return False
        if base <= thr[k]:
            return True
        deltas = sorted(map(operator.sub, o[:t], a[:t]))
        return any(map(operator.le, accumulate(deltas, initial=base), thr[k : limit + 1]))

    def leaf(in_mask: int, k: int, base: int) -> None:
        # Every U = I ∪ J, J ⊆ {0..w-1}: bnd = base + low_cut[J] - 2 Σ_J a_v.
        nonlocal best_r, best_m
        row = rows.get(k)
        if row is None:
            row = rows[k] = np.array(thr)[k + sizes]
        T[0] = base
        for (lower, upper), av in zip(levels, a):
            np.subtract(lower, 2 * av, out=upper)
        bnd = low_cut + T
        hits = (bnd <= row).nonzero()[0]
        if hits.size == 0:
            return
        ratios = bnd[hits] / (d * (k + sizes[hits]))
        j = int(ratios.argmin())
        r = float(ratios[j])
        m = in_mask | int(hits[j])
        if r < best_r:
            best_r, best_m = r, m
            if shared is not None and r < shared.value:
                with shared.get_lock():
                    if r < shared.value:
                        shared.value = r
        elif r == best_r and m < best_m:
            best_m = m

    def search(t: int, in_mask: int, k: int, cut: int, free_a: int) -> None:
        # The node with free vertices {0..t-1}: decide vertex t-1, out then in.
        if t == w:
            leaf(in_mask, k, cut + free_a)
            return
        v = t - 1
        nbrs = below[v]
        av, ov = a[v], o[v]
        for take in (0, 1):
            child = in_mask | (take << v)
            if v >= b:
                # the child's prefixes: [q, q + 2^(v-b)) with q its high bits
                q = child >> b
                if q >= p_hi or q + (1 << (v - b)) <= p_lo:
                    continue
            count = a if take else o
            for u in nbrs:
                count[u] += 1
            cut2 = cut + (ov if take else av)
            free2 = free_a - av + (len(nbrs) if take else 0)
            refresh_cap()
            if survives(v, k + take, cut2 + free2):
                search(v, child, k + take, cut2, free2)
            for u in nbrs:
                count[u] -= 1

    # The root's prefixes are [0, 2^(n-b)); it passes the bound trivially.
    if p_lo < p_hi and p_lo < 1 << (n - b):
        refresh_cap()
        search(n, 0, 0, 0, 0)
    return best_r, best_m


# ---------------------------------------------------------------------- #
# the native (C kernel) scan                                              #
# ---------------------------------------------------------------------- #


def _native_scan_span(
    ctx: _SearchCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared: SharedMinimum | None = None,
) -> tuple[float, int]:
    """One C-kernel call over prefixes ``[p_lo, p_hi)`` — same contract as
    :func:`_scan_span` (lexicographic best including the incoming seed).
    The kernel packs each adjacency row into one uint64 word (n <= 64)."""
    lib = _native.load()
    if lib is None:  # pragma: no cover - callers gate on availability first
        raise RuntimeError(
            "native exact backend unavailable: "
            f"{_native.native_build_error() or 'not loaded'}"
        )
    adj = np.array(ctx.adj, dtype=np.uint64)
    out_r = ctypes.c_double(math.inf)
    out_m = ctypes.c_uint64(0)
    rc = lib.repro_exact_scan(
        ctx.n,
        ctx.b,
        ctx.w,
        ctx.limit,
        ctx.d,
        adj.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        ctx.low_cut.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
        ctx.low_sizes.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        p_lo,
        p_hi,
        best[0],
        best[1],
        None if shared is None else shared.addr(),
        ctypes.byref(out_r),
        ctypes.byref(out_m),
    )
    if rc != 0:
        raise MemoryError("native exact scan could not allocate its scratch tables")
    return float(out_r.value), int(out_m.value)


#: The span kernel behind each full-scan backend; both take a
#: :class:`_SearchCtx` and return bit-identical ``(h, mask)``.
_SPAN_KERNELS = {"bitset": _scan_span, "native": _native_scan_span}


# -- shared-pool span plumbing (spawn-safe module level) ----------------- #

_MASK64 = (1 << 64) - 1

#: The span task message: (shm name, context token, backend, n, words-per-
#: row, d, limit, degree tuple, p_lo, p_hi).
_SpanMsg = tuple[str, str, str, int, int, int, int, "tuple[int, ...]", int, int]


def _pool_scan_span(msg: _SpanMsg) -> tuple[float, int]:
    """One prefix span on a pool worker (or inline, under serial fallback).

    The message carries only scalars plus the name of the shared-memory
    segment holding the cross-shard running minimum (first 8 bytes) and
    the packed adjacency rows.  The scan context — the leaf tables and
    adjacency both kernels re-read on every span — is installed once per
    graph through the pool's worker context store and reused across all of
    that graph's spans, and across repeat scans of the same graph.
    """
    from repro.engine import pool as pool_runtime

    shm_name, token, backend, n, w, d, limit, deg, p_lo, p_hi = msg
    shm = pool_runtime.attach_shm(shm_name)
    shared = pool_runtime.SharedMinimum(shm.buf)
    try:

        def _build() -> _SearchCtx:
            rows = np.frombuffer(shm.buf, dtype=np.uint64, count=n * w, offset=8)
            adj = _ints_from_rows(rows.reshape(n, w))
            return _search_ctx(adj, list(deg), d, n, limit)

        ctx = pool_runtime.worker_ctx(token, _build)
        return _SPAN_KERNELS[backend](ctx, p_lo, p_hi, (math.inf, 0), shared)
    finally:
        shared.close()
        try:
            shm.close()
        except BufferError:  # a lingering view export; GC finishes the close
            pass


def _pooled_span_scan(
    backend: str,
    adj: list[int],
    deg: list[int],
    d: int,
    n: int,
    limit: int,
    n_pref: int,
    jobs: int,
    best: tuple[float, int],
) -> tuple[float, int]:
    """Fan prefix spans over the shared pool; deterministic (h, mask) merge.

    One shared-memory segment per scan ships the bulk data zero-copy: the
    running minimum (seeded with the singleton best) followed by the packed
    adjacency rows.  Spans and merge order are identical to the serial
    scan, so results are bit-identical for every ``jobs`` value.
    """
    from repro.engine import pool as pool_runtime

    w = (n + 63) // 64
    spans = []
    n_spans = min(n_pref, jobs * 4)
    step = -(-n_pref // n_spans)
    for lo in range(0, n_pref, step):
        spans.append((lo, min(lo + step, n_pref)))
    shm = pool_runtime.create_shm(8 + n * w * 8)
    try:
        shared = pool_runtime.SharedMinimum(shm.buf)
        shared.value = best[0]
        rows = np.frombuffer(shm.buf, dtype=np.uint64, count=n * w, offset=8)
        rows = rows.reshape(n, w)
        for v, a in enumerate(adj):
            for j in range(w):
                rows[v, j] = (a >> (64 * j)) & _MASK64
        token = hashlib.sha256(
            repr((n, d, limit, tuple(deg))).encode() + rows.tobytes()
        ).hexdigest()
        msgs: list[_SpanMsg] = [
            (shm.name, token, backend, n, w, d, limit, tuple(deg), lo, hi)
            for lo, hi in spans
        ]
        results = pool_runtime.submit_batch(
            _pool_scan_span, msgs, workers=jobs, chunksize=1
        )
        del rows
        shared.close()
        for r, m in results:
            if r < best[0] or (r == best[0] and m < best[1]):
                best = (r, m)
        return best
    finally:
        try:
            shm.close()
        except BufferError:
            pass
        shm.unlink()


def _span_jobs(jobs: int, n_pref: int) -> int:
    """Clamp the span fan-out: never more workers than prefixes, and serial
    whenever the shared pool cannot run workers (kill switch, fallback)."""
    jobs = max(1, min(jobs, n_pref))
    if jobs > 1:
        from repro.engine import pool as pool_runtime

        if not pool_runtime.pool_enabled():
            jobs = 1
    return jobs


def _full_scan(
    adj: list[int], deg: list[int], d: int, n: int, limit: int, jobs: int, backend: str
) -> tuple[float, int]:
    """Minimum-ratio cut over every subset of size ``1..limit``, on the
    ``backend`` span kernel (``"bitset"`` or ``"native"``)."""
    best = _seed_singletons(deg, d)
    n_pref = _n_prefixes(n)
    jobs = _span_jobs(jobs, n_pref)
    if jobs == 1:
        ctx = _search_ctx(adj, deg, d, n, limit)
        return _SPAN_KERNELS[backend](ctx, 0, n_pref, best)
    return _pooled_span_scan(backend, adj, deg, d, n, limit, n_pref, jobs, best)


# ---------------------------------------------------------------------- #
# the size-restricted combinatorial walk                                  #
# ---------------------------------------------------------------------- #


def _gosper_chunks(n: int, j: int, chunk: int) -> Iterator[np.ndarray]:
    """Yield uint64 arrays of all ``C(n, j)`` masks of popcount ``j``,
    in ascending order (Gosper's successor), ``chunk`` masks at a time."""
    m = (1 << j) - 1
    top = 1 << n
    buf: list[int] = []
    while m < top:
        buf.append(m)
        if len(buf) == chunk:
            yield np.array(buf, dtype=np.uint64)
            buf = []
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    if buf:
        yield np.array(buf, dtype=np.uint64)


def _bounded_scan(
    adj: list[int],
    deg: list[int],
    d: int,
    n: int,
    s_max: int,
    best: tuple[float, int],
) -> tuple[float, int]:
    """Minimum-ratio cut over the ``C(n, ≤s_max)`` subsets of size ≤ s_max.

    Vectorized over Gosper-ordered mask chunks: the boundary is
    ``vol(U) − Σ_{v∈U} |N(v) ∩ U|`` computed with packed-word popcounts, so
    the cost per subset is O(n/64) words, independent of |E|.
    """
    if n > 63:
        raise ValueError(
            "size-restricted exact walk supports at most 63 vertices "
            f"(got {n}); shard the graph or use the spectral sandwich"
        )
    adj64 = np.array([a for a in adj], dtype=np.uint64)
    deg64 = np.array(deg, dtype=np.int64)
    shifts = np.arange(n, dtype=np.uint64)
    one = np.uint64(1)
    best_r, best_m = best
    for j in range(1, s_max + 1):
        dj = d * j
        for masks in _gosper_chunks(n, j, 1 << 14):
            member = ((masks[:, None] >> shifts[None, :]) & one).astype(np.int64)
            inter = np.bitwise_count(masks[:, None] & adj64[None, :]).astype(np.int64)
            bnd = member @ deg64 - (inter * member).sum(axis=1)
            ratios = bnd / dj
            i = int(np.argmin(ratios))
            r = float(ratios[i])
            m = int(masks[i])
            if r < best_r or (r == best_r and m < best_m):
                best_r, best_m = r, m
    return best_r, best_m


# ---------------------------------------------------------------------- #
# the scalar size-restricted walk (n > 63)                                #
# ---------------------------------------------------------------------- #


def _bounded_walk_py(
    adj: list[int], deg: list[int], d: int, n: int, s_max: int
) -> tuple[float, int]:
    """Pure-Python size-restricted walk: DFS over the subset lattice.

    Each step flips exactly one vertex into the current set (the
    revolving-door idea: C(n, ≤s) states, O(1) bitset work per transition),
    so exact ``h_s`` never touches the 2^n space.
    """
    best_r, best_m = math.inf, 0

    def rec(start: int, cur: int, bnd: int, size: int) -> None:
        nonlocal best_r, best_m
        for v in range(start, n):
            nb = bnd + deg[v] - 2 * (adj[v] & cur).bit_count()
            nm = cur | (1 << v)
            ns = size + 1
            r = nb / (d * ns)
            if r < best_r or (r == best_r and nm < best_m):
                best_r, best_m = r, nm
            if ns < s_max:
                rec(v + 1, nm, nb, ns)

    rec(0, 0, 0, 0)
    return best_r, best_m


# ---------------------------------------------------------------------- #
# public façade                                                           #
# ---------------------------------------------------------------------- #


def _comb_subsets(n: int, s: int) -> int:
    return sum(math.comb(n, j) for j in range(1, s + 1))


def exact_edge_expansion_v2(
    g: CDAG,
    max_size: int | None = None,
    *,
    jobs: int = 1,
    limit: int | None = None,
    backend: str = "auto",
) -> tuple[float, np.ndarray]:
    """Exact ``h(G)`` (or ``h_s`` when ``max_size`` is given) — ``(h, mask)``.

    Bit-identical to the seed enumerator on every input it could solve: the
    same ``h`` and the smallest minimizing subset mask.  ``jobs > 1`` shards
    the subset space over processes (identical results for any ``jobs``).
    ``backend`` selects ``"native"`` (the compiled C kernel) or ``"bitset"``
    (vectorized numpy kernels); ``"auto"`` picks native when the compiled
    library is importable and the graph fits single-word rows, bitset
    otherwise.  All backends return bit-identical ``(h, mask)``.
    """
    n = g.n_vertices
    if n < 2:
        raise ValueError("expansion undefined for graphs with < 2 vertices")
    # Per-call read: REPRO_EXACT_LIMIT flipped at runtime moves this gate in
    # lockstep with the auto-policy cache keys.
    lim = effective_exact_limit() if limit is None else limit
    if backend not in EXACT_BACKENDS:
        raise ValueError(f"unknown exact backend {backend!r}; choose from {EXACT_BACKENDS}")
    if backend == "native":
        if n > _NATIVE_MAX_VERTICES:
            raise ValueError(
                f"native backend packs rows into single uint64 words "
                f"(n <= {_NATIVE_MAX_VERTICES}); got {n}"
            )
        if not _native.native_available():
            raise RuntimeError(
                "native exact backend unavailable "
                f"({_native.native_build_error() or 'compile not attempted'}); "
                'use backend="bitset" or fix the C toolchain'
            )
    size_cap = n // 2 if max_size is None else min(max_size, n)
    if size_cap < 1:
        raise ValueError("max_size must be at least 1")
    d = g.max_degree
    if d == 0:
        # Edgeless graph: every ratio is 0/0; mirror the seed enumerator,
        # which reported NaN with the first singleton as witness.
        return math.nan, _mask_to_bool(1, n)
    adj = _ints_from_rows(g.adjacency_bits)
    deg = [int(x) for x in g.degree]

    restricted = max_size is not None
    comb_count = _comb_subsets(n, size_cap) if restricted else 0
    comb_feasible = restricted and comb_count <= COMB_SUBSET_LIMIT
    if n > lim:
        if not restricted:
            raise ValueError(
                f"exact enumeration limited to {lim} vertices; got {n} "
                "(pass max_size= for the size-restricted walk, or raise "
                "REPRO_EXACT_LIMIT)"
            )
        if not comb_feasible:
            raise ValueError(
                f"exact h_s infeasible: {n} vertices exceeds the enumeration "
                f"limit {lim} and C({n}, <={size_cap}) = {comb_count} exceeds "
                f"{COMB_SUBSET_LIMIT} subsets"
            )

    # Cost-based choice between the full doubling scan and the combinatorial
    # walk; both are exact and tie-break identically, so this is pure perf.
    # (The size-restricted walk shares the bitset machinery regardless of
    # backend — the native kernel only accelerates the full scan.)
    use_comb = comb_feasible and (n > lim or comb_count * n < (1 << n))
    if use_comb:
        if n > 63:  # beyond uint64 masks: the Python-int walk still works
            r, m = _bounded_walk_py(adj, deg, d, n, size_cap)
        else:
            r, m = _bounded_scan(adj, deg, d, n, size_cap, (math.inf, 0))
    else:
        native = backend == "native" or (
            backend == "auto" and n <= _NATIVE_MAX_VERTICES and _native.native_available()
        )
        r, m = _full_scan(adj, deg, d, n, size_cap, jobs, "native" if native else "bitset")
    return r, _mask_to_bool(m, n)


def exact_small_set_expansion_v2(
    g: CDAG, s: int, *, jobs: int = 1, limit: int | None = None
) -> tuple[float, np.ndarray]:
    """Exact ``h_s(G)`` (Eq. 5) with its witness, via the size-restricted walk.

    Feasible far beyond the full-enumeration limit: a 40-vertex graph at
    ``s=3`` costs ``C(40, ≤3) ≈ 10^4`` evaluations, not ``2^40``.
    """
    return exact_edge_expansion_v2(g, max_size=s, jobs=jobs, limit=limit)
