"""Exact edge expansion — one branch-and-bound scan and one walk past the limit.

The paper's ground truth for Lemma 4.3 / Corollary 4.4 is *exact* edge
expansion (Eq. 4) and exact small-set expansion ``h_s`` (Eq. 5).
:func:`exact_edge_expansion_v2` answers both, and dispatches on the
enumeration limit alone (:func:`effective_exact_limit`, 32 by default;
``REPRO_EXACT_LIMIT`` or ``limit=`` move it):

* ``n <= limit`` — the branch-and-bound scan below, capped at
  ``max_size`` for ``h_s`` and at ``n // 2`` for ``h``;
* ``n > limit`` with ``max_size`` — the size-restricted walk
  :func:`_bounded_walk_py`, which visits only the ``C(n, ≤s)`` subsets
  (one incremental flip per step over arbitrary-width ints), as long as
  that count stays within :data:`COMB_SUBSET_LIMIT`;
* ``n > limit`` without ``max_size`` — an error.

**The scan.** Every vertex's undirected neighbourhood is a packed bitset
row (:attr:`repro.cdag.graph.CDAG.adjacency_bits`).  Both kernels run one
depth-first search and prune it with one sound bound.  Let ``I`` be a
decided-in set (``k = |I|``), ``O`` a decided-out set and ``F`` the free
vertices, with ``a_v = |N(v)∩I|`` and ``o_v = |N(v)∩O|`` for ``v ∈ F``.
Every ``U = I ∪ S`` with ``S ⊆ F``, ``|S| = s`` has boundary ``cut(I, O) +
Σ_{v∈F} a_v + Σ_{v∈S} (o_v − a_v) + e(S, F∖S)``, and the last term is
``≥ 0``; so it is at least ``cut(I, O) + Σ_F a_v`` plus the ``s``
smallest ``o_v − a_v``.  When no ``s ≤ min(|F|, limit − k)`` meets the
integer threshold ``floor(h_best·d·(k+s)) + 1`` (the +1 keeps exact
ties), no subset under the node can tie or beat ``h_best``: skipping it
changes no candidate, and ``(h, mask)`` stays bit-identical.  The search
decides vertices ``n−1`` down to ``w = min(b, 8)``, out before in, applies
the bound at every node and sweeps the ``2^w`` subsets under each
surviving leaf with the doubling (batched Gray-code) recurrence.

The kernel is either native — ``repro_exact_scan`` in C
(:mod:`repro.core._native`, one ``.c`` file compiled with the system
compiler at first use and loaded through ``ctypes``; n ≤ 64) — or its
numpy port :func:`_scan_span`.  ``backend="auto"`` picks native whenever
the library is importable and the graph fits; without a compiler or with
``REPRO_NATIVE=0`` everything falls back to numpy.  The native path is an
accelerator, never a dependency.

**Sharding.** The subset space splits into prefix-fixed spans (the
vertices ``>= b = min(n, 16)`` fixed).  With ``jobs > 1`` the spans fan
out over the shared process pool with a shared running minimum for
cross-shard pruning; the merge is a deterministic lexicographic ``(h,
mask)`` reduction, so results are identical for every ``jobs`` value.

Every path returns results bit-identical to the seed enumerator: the same
``h`` float and the *smallest* minimizing subset mask.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
import os
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

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
# the size-restricted walk (past the limit)                               #
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
# the entry point                                                         #
# ---------------------------------------------------------------------- #


def exact_edge_expansion_v2(
    g: CDAG,
    max_size: int | None = None,
    *,
    jobs: int = 1,
    limit: int | None = None,
    backend: str = "auto",
) -> tuple[float, np.ndarray]:
    """Exact ``h(G)`` (Eq. 4), or ``h_s`` (Eq. 5) with ``max_size=s`` — ``(h, mask)``.

    Bit-identical to the seed enumerator on every input it could solve: the
    same ``h`` and the smallest minimizing subset mask.  Up to the limit the
    branch-and-bound scan answers every question, capped at ``max_size``
    (``n // 2`` without it); past the limit only ``h_s`` is defined, by the
    size-restricted walk.  ``jobs > 1`` shards the scan over processes
    (identical results for any ``jobs``).  ``backend`` selects the scan
    kernel: ``"native"`` (the compiled C kernel) or ``"bitset"`` (numpy);
    ``"auto"`` picks native when the compiled library is importable and the
    graph fits single-word rows, bitset otherwise.  Both return
    bit-identical ``(h, mask)``.
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

    if n <= lim:
        native = backend == "native" or (
            backend == "auto" and n <= _NATIVE_MAX_VERTICES and _native.native_available()
        )
        r, m = _full_scan(adj, deg, d, n, size_cap, jobs, "native" if native else "bitset")
        return r, _mask_to_bool(m, n)
    if max_size is None:
        raise ValueError(
            f"exact enumeration limited to {lim} vertices; got {n} "
            "(pass max_size= for the size-restricted walk, or raise "
            "REPRO_EXACT_LIMIT)"
        )
    comb_count = sum(math.comb(n, j) for j in range(1, size_cap + 1))
    if comb_count > COMB_SUBSET_LIMIT:
        raise ValueError(
            f"exact h_s infeasible: {n} vertices exceeds the enumeration "
            f"limit {lim} and C({n}, <={size_cap}) = {comb_count} exceeds "
            f"{COMB_SUBSET_LIMIT} subsets"
        )
    r, m = _bounded_walk_py(adj, deg, d, n, size_cap)
    return r, _mask_to_bool(m, n)
