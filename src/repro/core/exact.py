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
  from scratch.  The vectorized kernel builds boundary tables with the
  binary-reflected doubling recurrence (each doubling step flips exactly one
  vertex into every previously enumerated subset — the batched form of a
  Gray-code walk, costing O(1) amortized words per subset), and prunes with
  the branch-and-bound test ``boundary > d·|U|·h_best ⇒ skip``.

* **Prefix-sharded parallel search** — the subset space splits into
  prefix-fixed spans (high vertex bits fixed, low bits enumerated by the
  kernel).  Spans are independent, so they fan out over a ``spawn``
  process pool with a shared running minimum for cross-shard pruning; the
  merge is a deterministic lexicographic ``(h, mask)`` reduction, so results
  are identical for every ``jobs`` value.

* **Size-aware branch-and-bound** — one sound bound prunes in both
  kernels.  Let ``I`` be a decided-in set (``k = |I|``), ``O`` a
  decided-out set and ``F`` the free vertices, with ``a_v = |N(v)∩I|`` and
  ``o_v = |N(v)∩O|`` for ``v ∈ F``.  Every ``U = I ∪ S`` with ``S ⊆ F``,
  ``|S| = s`` has boundary ``cut(I, O) + Σ_{v∈F} a_v + Σ_{v∈S} (o_v − a_v)
  + e(S, F∖S)``, and the last term is ``≥ 0``; so it is at least
  ``cut(I, O) + Σ_F a_v`` plus the ``s`` smallest ``o_v − a_v``.  When no
  ``s ≤ min(|F|, limit − k)`` meets the integer threshold
  ``floor(h_best·d·(k+s)) + 1`` (the +1 keeps exact ties), no subset under
  the node can tie or beat ``h_best``: skipping it changes no candidate,
  and ``(h, mask)`` stays bit-identical.  The numpy kernel applies it once
  per prefix (``I = P``, ``O = H∖P``, ``F`` the low block) before the
  ``2^b`` sweep.  The native kernel applies it at every node of a
  depth-first search that decides vertices ``n−1`` down to
  ``w = min(b, 8)`` and sweeps only the ``2^w`` subsets under each
  surviving leaf.

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

Together these lift the exactly-solvable regime from 22 (seed) to 28
(numpy kernels) to :data:`DEFAULT_EXACT_LIMIT` = 32 vertices with the
native kernel (override with the ``REPRO_EXACT_LIMIT`` environment variable
or the ``limit=`` parameter).  All kernels return results bit-identical to
the seed enumerator: the same ``h`` float and the *smallest* minimizing
subset mask.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.cdag.graph import CDAG
from repro.core import _native

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
#: branch-and-bound, one process on a 2-core x86-64 host; the numpy fallback
#: handles the same space, just slower (raise/lower via REPRO_EXACT_LIMIT for
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

#: Low-block width: the vectorized kernel enumerates 2^_LOW_BITS subsets per
#: prefix.  16 keeps every scratch table L2-resident while leaving ≥ 2^(n-16)
#: prefixes to shard across processes.
_LOW_BITS = 16

#: Leaf width of the native kernel's branch-and-bound: it decides vertices
#: down to ``w = min(b, _LEAF_BITS)`` and sweeps the ``2^w`` subsets of the
#: vertices below ``w`` in one doubling pass.
_LEAF_BITS = 8


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
# the vectorized prefix-sharded kernel                                    #
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


class _ScanCtx:
    """Precomputed tables for one graph's full subset scan.

    The low block covers vertices ``0..b-1``; its per-subset size / internal
    cut tables are built once by the doubling recurrence and shared across
    every prefix (and, in parallel runs, rebuilt once per worker).
    """

    def __init__(self, adj: list[int], deg: list[int], d: int, n: int, limit: int) -> None:
        self.d = d
        self.limit = limit
        self.b = b = min(n, _LOW_BITS)
        self.low_sizes, self.low_cut = _low_tables(adj, deg, b)
        # High side (vertices b..n-1): per-vertex degree, adjacency among the
        # high vertices, and the bit matrix of edges into the low block.
        nh = n - b
        self.high_deg = [deg[b + j] for j in range(nh)]
        self.high_adj = [adj[b + j] >> b for j in range(nh)]
        rows_low = np.zeros((nh, b), dtype=np.int32)
        for j in range(nh):
            row = adj[b + j]
            for u in range(b):
                rows_low[j, u] = (row >> u) & 1
        self.rows_low = rows_low
        # |N(v) ∩ H| per low vertex v, for the prefix bound in _scan_span.
        self.low_high_deg = rows_low.sum(axis=0, dtype=np.int32)


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
    ctx: _ScanCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared: Any = None,
) -> tuple[float, int]:
    """Scan prefixes ``[p_lo, p_hi)``; returns the lexicographic best
    ``(h, mask)`` including the incoming ``best``.

    ``shared`` is an optional cross-process running minimum (a
    ``multiprocessing.Value``): it tightens the pruning threshold but never
    affects which candidate wins — the final reduction is by ``(h, mask)``.
    """
    b, d, limit = ctx.b, ctx.d, ctx.limit
    nlow = 1 << b
    sizesL = ctx.low_sizes
    cutL = ctx.low_cut
    low_high_deg = ctx.low_high_deg
    best_r, best_m = best
    scratch_s = np.empty(nlow, dtype=np.int32)
    scratch_b = np.empty(nlow, dtype=np.int32)
    # Integer pruning thresholds per prefix popcount, rebuilt when the
    # running minimum improves: a subset survives iff
    # boundary <= floor(h_best * d * |U|) + 1 — the +1 keeps exact ties (the
    # seed witness may sit at a larger mask than a tied candidate), and the
    # exact division below refilters the slack.
    thr: dict[int, np.ndarray] = {}
    thr_for = math.nan

    def _threshold(size_p: int, h_cap: float) -> np.ndarray:
        if math.isinf(h_cap):
            # No running minimum yet: every boundary survives.  (inf * |U|
            # would be inf * 0 = NaN at the empty low subset.)
            t = np.full(nlow, 2**31 - 1, dtype=np.int32)
        else:
            t = np.floor(h_cap * d * (size_p + sizesL.astype(np.float64))) + 1.0
            t = np.minimum(t, 2**31 - 1).astype(np.int32)
        over = np.flatnonzero(sizesL > limit - size_p)
        t[over] = -1
        if size_p == 0:
            t[0] = -1  # the empty set
        return t

    for p in range(p_lo, p_hi):
        js = []
        pp = p
        while pp:
            js.append((pp & -pp).bit_length() - 1)
            pp &= pp - 1
        size_p = len(js)
        if size_p > limit:
            continue
        h_cap = best_r
        if shared is not None:
            h_cap = min(h_cap, shared.value)
        if h_cap != thr_for:
            thr.clear()
            thr_for = h_cap
            # floor(h_cap·d·s) + 1 by total size s = 0..limit (-1: the empty set)
            thr_total = np.floor(h_cap * d * np.arange(1, limit + 1)) + 1.0
            thr_total = np.concatenate(([-1.0], thr_total))
        if js:
            base_p = sum(ctx.high_deg[j] for j in js)
            for j in js:
                base_p -= 2 * (ctx.high_adj[j] & (p & ((1 << j) - 1))).bit_count()
            wv = ctx.rows_low[js].sum(axis=0, dtype=np.int32)
            # The size-aware bound (module docstring): a U under P with s
            # low vertices cuts at least LB(s) = base_p plus the s smallest
            # δ_v = |N(v)∩(H∖P)| − |N(v)∩P|; skip P when no s meets
            # thr_total[|P| + s].  Every LB(s) is at least base_p + Σ min(δ, 0)
            # and the threshold rises with s, so that sum against the
            # largest reachable threshold rejects most prefixes first.
            delta = low_high_deg - 2 * wv
            cap = min(limit, size_p + b)
            if base_p + int(np.minimum(delta, 0).sum()) > thr_total[cap]:
                continue
            if base_p > thr_total[size_p]:
                lb = base_p + np.cumsum(np.sort(delta)[: cap - size_p])
                if not (lb <= thr_total[size_p + 1 : cap + 1]).any():
                    continue
        else:
            base_p = 0
            wv = None
        tint = thr.get(size_p)
        if tint is None:
            tint = thr[size_p] = _threshold(size_p, h_cap)
        # Boundary of P ∪ L for every low subset L in one doubling sweep:
        # cross(P, L) = Σ_{v∈L} |N(v) ∩ P| is a weighted subset sum, built by
        # the same one-flip-per-step recurrence as the low tables.
        S = scratch_s
        S[0] = 0
        if wv is not None:
            half = 1
            for v in range(b):
                np.add(S[:half], wv[v], out=S[half : 2 * half])
                half *= 2
            np.multiply(S, -2, out=scratch_b)
            scratch_b += cutL
            if base_p:
                scratch_b += base_p
            bnd = scratch_b
        else:
            bnd = cutL
        hits = np.flatnonzero(bnd <= tint)
        if hits.size == 0:
            continue
        bb = bnd[hits].astype(np.int64)
        ss = d * (size_p + sizesL[hits].astype(np.int64))
        ratios = bb / ss
        j = int(np.argmin(ratios))
        r = float(ratios[j])
        m = (p << b) | int(hits[j])
        if r < best_r:
            best_r, best_m = r, m
            if shared is not None and r < shared.value:
                with shared.get_lock():
                    if r < shared.value:
                        shared.value = r
        elif r == best_r and m < best_m:
            best_m = m
    return best_r, best_m


# -- shared-pool span plumbing (spawn-safe module level) ----------------- #

_MASK64 = (1 << 64) - 1

#: The span task message: (shm name, context token, backend, n, words-per-
#: row, d, limit, degree tuple, p_lo, p_hi).
_SpanMsg = tuple[str, str, str, int, int, int, int, "tuple[int, ...]", int, int]


def _pool_scan_span(msg: _SpanMsg) -> tuple[float, int]:
    """One prefix span on a pool worker (or inline, under serial fallback).

    The message carries only scalars plus the name of the shared-memory
    segment holding the cross-shard running minimum (first 8 bytes) and
    the packed adjacency rows.  The scan context — the doubling tables the
    kernel re-reads on every span — is installed once per (graph, backend)
    through the pool's worker context store and reused across all of that
    graph's spans, and across repeat scans of the same graph.
    """
    from repro.engine import pool as pool_runtime

    shm_name, token, backend, n, w, d, limit, deg, p_lo, p_hi = msg
    shm = pool_runtime.attach_shm(shm_name)
    shared = pool_runtime.SharedMinimum(shm.buf)
    try:

        def _build() -> Any:
            rows = np.frombuffer(shm.buf, dtype=np.uint64, count=n * w, offset=8)
            adj = _ints_from_rows(rows.reshape(n, w))
            if backend == "native":
                return _native_ctx(adj, list(deg), d, n, limit)
            return _ScanCtx(adj, list(deg), d, n, limit)

        ctx = pool_runtime.worker_ctx(token, _build)
        if backend == "native":
            assert isinstance(ctx, _NativeCtx)
            return _native_scan_span(
                ctx, p_lo, p_hi, (math.inf, 0), shared_addr=shared.addr()
            )
        assert isinstance(ctx, _ScanCtx)
        return _scan_span(ctx, p_lo, p_hi, (math.inf, 0), shared=shared)
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
            repr((backend, n, d, limit, tuple(deg))).encode() + rows.tobytes()
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
    adj: list[int], deg: list[int], d: int, n: int, limit: int, jobs: int
) -> tuple[float, int]:
    """Minimum-ratio cut over every subset of size ``1..limit``."""
    best = _seed_singletons(deg, d)
    n_pref = _n_prefixes(n)
    jobs = _span_jobs(jobs, n_pref)
    if jobs == 1:
        return _scan_span(_ScanCtx(adj, deg, d, n, limit), 0, n_pref, best)
    return _pooled_span_scan("bitset", adj, deg, d, n, limit, n_pref, jobs, best)


# ---------------------------------------------------------------------- #
# the native (C kernel) scan                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _NativeCtx:
    """The packed tables one native scan call reads (per process).

    The C kernel decides vertices ``n-1 .. w`` by branch-and-bound and
    sweeps only the ``2^w`` subsets of vertices ``0..w-1`` at each leaf, so
    it needs the leaf's size / internal cut tables, not the ``2^b`` ones of
    :class:`_ScanCtx`.  Prefixes still number the vertices ``>= b``.
    """

    n: int
    b: int
    w: int
    limit: int
    d: int
    adj: np.ndarray  # (n,) uint64 — one packed word per vertex (n <= 64)
    low_cut: np.ndarray  # (2^w,) int32: vol(J) - 2 e(J)
    low_sizes: np.ndarray  # (2^w,) uint8: |J|


def _native_ctx(adj: list[int], deg: list[int], d: int, n: int, limit: int) -> _NativeCtx:
    if n > _NATIVE_MAX_VERTICES:
        raise ValueError(
            f"native backend packs rows into single uint64 words (n <= "
            f"{_NATIVE_MAX_VERTICES}); got {n}"
        )
    b = min(n, _LOW_BITS)
    w = min(b, _LEAF_BITS)
    sizes, cut = _low_tables(adj, deg, w)
    return _NativeCtx(
        n=n,
        b=b,
        w=w,
        limit=limit,
        d=d,
        adj=np.array(adj, dtype=np.uint64),
        low_cut=cut,
        low_sizes=sizes.astype(np.uint8),
    )


def _native_scan_span(
    ctx: _NativeCtx,
    p_lo: int,
    p_hi: int,
    best: tuple[float, int],
    shared_addr: int | None = None,
) -> tuple[float, int]:
    """One C-kernel call over prefixes ``[p_lo, p_hi)`` — same contract as
    :func:`_scan_span` (lexicographic best including the incoming seed)."""
    lib = _native.load()
    if lib is None:  # pragma: no cover - callers gate on availability first
        raise RuntimeError(
            "native exact backend unavailable: "
            f"{_native.native_build_error() or 'not loaded'}"
        )
    out_r = ctypes.c_double(math.inf)
    out_m = ctypes.c_uint64(0)
    rc = lib.repro_exact_scan(
        ctx.n,
        ctx.b,
        ctx.w,
        ctx.limit,
        ctx.d,
        ctx.adj.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        ctx.low_cut.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
        ctx.low_sizes.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        p_lo,
        p_hi,
        best[0],
        best[1],
        shared_addr,
        ctypes.byref(out_r),
        ctypes.byref(out_m),
    )
    if rc != 0:
        raise MemoryError("native exact scan could not allocate its scratch tables")
    return float(out_r.value), int(out_m.value)


def _full_scan_native(
    adj: list[int], deg: list[int], d: int, n: int, limit: int, jobs: int
) -> tuple[float, int]:
    """:func:`_full_scan` on the C kernel — identical spans, pool, and merge."""
    best = _seed_singletons(deg, d)
    n_pref = _n_prefixes(n)
    jobs = _span_jobs(jobs, n_pref)
    if jobs == 1:
        return _native_scan_span(_native_ctx(adj, deg, d, n, limit), 0, n_pref, best)
    return _pooled_span_scan("native", adj, deg, d, n, limit, n_pref, jobs, best)


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
    elif backend == "native" or (
        backend == "auto" and n <= _NATIVE_MAX_VERTICES and _native.native_available()
    ):
        r, m = _full_scan_native(adj, deg, d, n, size_cap, jobs)
    else:
        r, m = _full_scan(adj, deg, d, n, size_cap, jobs)
    return r, _mask_to_bool(m, n)


def exact_small_set_expansion_v2(
    g: CDAG, s: int, *, jobs: int = 1, limit: int | None = None
) -> tuple[float, np.ndarray]:
    """Exact ``h_s(G)`` (Eq. 5) with its witness, via the size-restricted walk.

    Feasible far beyond the full-enumeration limit: a 40-vertex graph at
    ``s=3`` costs ``C(40, ≤3) ≈ 10^4`` evaluations, not ``2^40``.
    """
    return exact_edge_expansion_v2(g, max_size=s, jobs=jobs, limit=limit)
