"""CAPS — Communication-Avoiding Parallel Strassen [Ballard et al. 2011].

The algorithm the paper credits with *attaining* the Strassen-like cells of
Table I (up to O(log p)).  ``p = 7^ℓ`` processors execute the Strassen
recursion itself in parallel; each recursion step is one of:

* **BFS step** ("breadth-first"): the 7 subproblems run *simultaneously*,
  each on a disjoint 1/7 of the current processor group.  Requires a
  redistribution (the only communication!) and multiplies the per-processor
  memory footprint by 7/4 — the communication-cheap, memory-hungry choice.
* **DFS step** ("depth-first"): all processors cooperate on the 7
  subproblems *sequentially*.  No communication at all (linear combinations
  are local under the layout below), memory shrinks by 4 — the
  memory-lean, parallelism-deferring choice.

The schedule (a string like ``"DBB"``) interleaves them; with unlimited
memory all-BFS gives bandwidth ``Θ(n²/p^(2/ω₀))``, and prepending DFS steps
trades bandwidth for memory exactly along the ``(n/√M)^(ω₀)·M/p`` curve —
the E7/E10 experiments sweep this.

Data layout (the heart of CAPS): matrices are stored in *quadtree order*
(block-recursive flattening to leaf cells of size ``(n/2^depth)²``), and
each group of g processors owns the elements of its current block
**cyclically**: global quadtree position ``t`` lives on group rank
``t mod g``.  Consequences, each load-bearing:

* every quadrant of the current block is a *contiguous quarter* of the
  flattening whose cyclic pattern is identical across quadrants (requires
  ``g | (s/2)²``, enforced at construction) — so the Strassen linear
  combinations are purely local slice arithmetic;
* a BFS redistribution from cyclic-mod-g to cyclic-mod-(g/7) sends each
  processor's chunk of ``S_r``/``T_r`` to exactly *one* target processor,
  and the target interleaves the 7 chunks it receives (``out[w::7] = …``);
* at the base (g = 1) the processor holds one contiguous leaf cell in
  row-major order — a plain in-core multiply.

Execution is level-synchronous.  ``_caps`` runs one schedule step on a
``(G, g)`` array of ranks — G concurrent groups of g ranks, each holding
its own subproblem under the same keys — through the machine's row
primitives, so encode, decode and the leaf multiply are each one numpy
operation over all G·g ranks.  A BFS step's t₀ subgroups recurse as one
call on the ``(G·t₀, g/t₀)`` reshape.  This charges exactly what running
the siblings one after another and merging their k-th supersteps would:
siblings have identical structure on disjoint ranks, so the k-th
superstep of the batch *is* the union of their k-th supersteps, and each
rank still sees its own puts, pops and flops in the same order.  A DFS
step loops over its t₀ subproblems in order, as before, so memory peaks
are unchanged.  Linear combinations are vectorised over ranks, never over
coefficients: each sum accumulates term by term as one rank would, so C
is bit-identical to the rank-by-rank arithmetic.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.machine.distributed import Machine
from repro.parallel.base import (
    AnalyticCost,
    ParallelAlgorithm,
    ParallelConfig,
    register_parallel,
)
from repro.util.numutil import is_power_of

__all__ = [
    "Caps",
    "block_permutation",
    "quadtree_permutation",
    "validate_caps_geometry",
]


def block_permutation(n: int, depth: int, n0: int = 2) -> np.ndarray:
    """π with ``flat[t] = M.ravel()[π[t]]``: block-recursive flattening.

    ``depth`` levels of n₀×n₀ block splitting; leaf cells of size
    ``(n/n₀^depth)²`` are stored row-major.  ``n0=2`` is the classic
    quadtree order of CAPS; any square scheme's n₀ gives the analogous
    layout for its own recursion.
    """
    if n % (n0**depth) != 0:
        raise ValueError(f"n={n} not divisible by {n0}^{depth}")
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)

    def rec(block: np.ndarray, d: int) -> np.ndarray:
        if d == 0:
            return block.ravel()
        h = block.shape[0] // n0
        return np.concatenate(
            [
                rec(block[i * h : (i + 1) * h, j * h : (j + 1) * h], d - 1)
                for i in range(n0)
                for j in range(n0)
            ]
        )

    return rec(idx, depth)


def quadtree_permutation(n: int, depth: int) -> np.ndarray:
    """The n₀ = 2 (quadtree) special case of :func:`block_permutation`."""
    return block_permutation(n, depth, 2)


def validate_caps_geometry(
    n: int, p: int, schedule: str, scheme: BilinearScheme | str = "strassen"
) -> None:
    """Check the divisibility the cyclic-over-block-tree layout needs.

    At each step the current group of g processors must satisfy
    ``g | (s/n₀)²`` (block chunks align), and the final leaf must be a
    whole matrix on one processor.  The scheme supplies n₀ (block split)
    and t₀ (BFS fan-out); Strassen's 2 and 7 are the defaults.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    n0, t0 = scheme.n0, scheme.t0
    ell = schedule.count("B")
    if t0**ell != p:
        raise ValueError(
            f"schedule {schedule!r} has {ell} BFS steps; needs {t0}^{ell} == p={p}"
        )
    g = p
    s = n
    for i, step in enumerate(schedule):
        if s % n0 != 0:
            raise ValueError(f"step {i}: size {s} not divisible by {n0}")
        block = (s // n0) * (s // n0)
        if block % g != 0:
            raise ValueError(
                f"step {i}: group size {g} does not divide (s/{n0})²={block} "
                f"(choose n as a multiple of {n0}^depth · {t0}^⌈ℓ/2⌉)"
            )
        s //= n0
        if step == "B":
            g //= t0
        elif step != "D":
            raise ValueError(f"schedule may contain only 'B'/'D', got {step!r}")
    if g != 1:
        raise ValueError("schedule must end with group size 1 (ℓ BFS steps)")


def _bfs_count(scheme: BilinearScheme, p: int) -> int:
    """ℓ with p = t₀^ℓ, or a clear error (the declared rank-count predicate)."""
    if not is_power_of(p, scheme.t0):
        raise ValueError(
            f"caps: p={p} must be a power of the scheme's rank t0={scheme.t0} "
            f"(p = t0^ℓ processor groups)"
        )
    ell = 0
    while scheme.t0**ell < p:
        ell += 1
    return ell


@register_parallel
class Caps(ParallelAlgorithm):
    """Scheme-driven BFS/DFS parallel recursion on the cyclic block-tree layout."""

    name = "caps"
    algorithm_class = "strassen-like"
    regime = "2D–3D (schedule-tunable)"
    requirement = "p = t₀^ℓ, square scheme, g | (s/n₀)² at every schedule step"
    attains = "Ω((n/√M)^ω₀·M/p), floor Ω(n²/p^(2/ω₀))  [Table I, Strassen-like]"
    uses_scheme = True
    default_scheme = "strassen"
    option_names = ("schedule",)

    def validate(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        schedule: str | None = None,
        **options: Any,
    ) -> None:
        scheme = scheme if scheme is not None else get_scheme(self.default_scheme)
        if not scheme.is_square:
            raise ValueError(
                "the cyclic-over-block-tree CAPS layout needs a square scheme; "
                f"{scheme.name!r} has shape {scheme.shape}"
            )
        ell = _bfs_count(scheme, p)
        if schedule is None:
            schedule = "B" * ell
        validate_caps_geometry(n, p, schedule, scheme)

    def analytic_costs(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        schedule: str | None = None,
        **options: Any,
    ) -> AnalyticCost:
        # Walk the schedule.  A BFS step at state (s, g) redistributes, per
        # rank, 2(t₀−1) chunks out and 2(t₀−1) lanes in forward plus
        # (t₀−1)·seg each way backward, seg = (s/n₀)²/g — 6(t₀−1)·seg words
        # and 6(t₀−1) messages (one lane per rank is a free self-send).  A
        # DFS step is communication-free but multiplies every later charge
        # by t₀ (the subproblems run sequentially).  This is *exact*: the
        # simulator's measured words equal it for every schedule.
        # Memory: parent input chunks stay live down the recursion, so the
        # peak is the chain Σ 2·(n²/p)·f_i of prefix footprint factors
        # (×t₀/n₀² per BFS, ÷n₀² per DFS) plus the leaf's a/b/c working set
        # and, per DFS step, its t₀ accumulated Q-chunks (within ~6% of
        # measured for every schedule).
        scheme = scheme if scheme is not None else get_scheme(self.default_scheme)
        t0, n0 = scheme.t0, scheme.n0
        ell = _bfs_count(scheme, p)
        if schedule is None:
            schedule = "B" * ell
        if set(schedule) - {"B", "D"}:
            raise ValueError(f"schedule may contain only 'B'/'D', got {schedule!r}")
        if schedule.count("B") != ell:
            raise ValueError(
                f"schedule {schedule!r} has {schedule.count('B')} BFS steps; "
                f"needs {ell} for p={p} = {t0}^{ell}"
            )
        words = msgs = 0.0
        s, g, mult = float(n), p, 1.0
        factor = 1.0
        chain = 2.0 * n * n / p      # level-0 A, B chunks
        dfs_extra = 0.0
        for step in schedule:
            seg = (s / n0) ** 2 / g
            if step == "B":
                words += mult * 6.0 * (t0 - 1) * seg
                msgs += mult * 6.0 * (t0 - 1)
                factor *= t0 / n0**2
                s /= n0
                g //= t0
            else:  # D
                factor /= n0**2
                mult *= t0
                s /= n0
                dfs_extra += t0 * seg
            chain += 2.0 * n * n / p * factor
        memory = chain + 2.0 * s * s + dfs_extra
        return AnalyticCost(words=words, messages=msgs, memory=memory)

    def analytic_flops(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        schedule: str | None = None,
        **options: Any,
    ) -> float:
        # t₀^depth leaf multiplies of size (n/n₀^depth) split over p ranks;
        # each DFS step serializes a factor t₀ of them onto every rank.
        scheme = scheme if scheme is not None else get_scheme(self.default_scheme)
        if schedule is None:
            schedule = "B" * _bfs_count(scheme, p)
        depth = len(schedule)
        leaf = n / scheme.n0**depth
        return scheme.t0**depth * 2.0 * leaf**3 / p

    def default_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: BilinearScheme | None = None,
    ) -> list[dict]:
        scheme = scheme if scheme is not None else get_scheme(self.default_scheme)
        out = []
        ell = 1
        while scheme.t0**ell <= p_max:
            p = scheme.t0**ell
            try:
                validate_caps_geometry(n, p, "B" * ell, scheme)
            except ValueError:
                pass
            else:
                out.append({"p": p, "c": 1})
            ell += 1
        return out

    def plan_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: str | None = None,
    ) -> list[ParallelConfig]:
        """All-BFS plus DFS-prefixed schedules: the bandwidth↔memory knob.

        ``"B"·ℓ`` is the unlimited-memory point; each prepended DFS step
        trades a factor t₀ of bandwidth for a factor n₀² of footprint, so
        the planner sees the whole Table-I trade-off curve, not just its
        memory-hungry endpoint.
        """
        sch = self._resolve_scheme(scheme)
        assert sch is not None
        out = []
        for base in self.default_configs(n, p_max, cs=cs, scheme=sch):
            p = base["p"]
            ell = _bfs_count(sch, p)
            for dfs in range(3):
                schedule = "D" * dfs + "B" * ell
                try:
                    validate_caps_geometry(n, p, schedule, sch)
                except ValueError:
                    continue
                out.append(
                    ParallelConfig(n=n, p=p, scheme=sch.name, schedule=schedule)
                )
        return out

    def result_label(
        self,
        *,
        p: int,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        schedule: str | None = None,
        **options: Any,
    ) -> str:
        scheme = scheme if scheme is not None else get_scheme(self.default_scheme)
        if schedule is None:
            schedule = "B" * _bfs_count(scheme, p)
        return f"caps({schedule})"

    def _execute(
        self,
        m: Machine,
        A: np.ndarray,
        B: np.ndarray,
        *,
        p: int,
        c: int,
        scheme: BilinearScheme | None,
        schedule: str | None = None,
        **options: Any,
    ) -> np.ndarray:
        n = A.shape[0]
        if schedule is None:
            schedule = "B" * _bfs_count(scheme, p)
        depth = len(schedule)

        perm = block_permutation(n, depth, scheme.n0)
        # rank r owns quadtree positions r, r+p, r+2p, ...: column r of the
        # (n²/p, p) view of the flattening
        ranks = np.arange(p)
        m.put_rows(ranks, "A", A.ravel()[perm].reshape(-1, p).T)
        m.put_rows(ranks, "B", B.ravel()[perm].reshape(-1, p).T)

        _caps(m, ranks.reshape(1, p), "A", "B", "C", n, schedule, 0, scheme)

        C = np.empty(n * n)
        C[perm] = m.get_rows(ranks, "C").T.ravel()
        return C.reshape(n, n)


def _caps(
    m: Machine,
    ranks: np.ndarray,
    key_a: str,
    key_b: str,
    key_c: str,
    s: int,
    schedule: str,
    si: int,
    scheme: BilinearScheme,
) -> None:
    """Run schedule step ``si`` on every group of ``ranks`` at once.

    ``ranks`` has shape ``(G, g)``: G concurrent groups of g ranks, each
    holding its own size-``s`` subproblem under the same keys.
    """
    G, g = ranks.shape
    flat = ranks.ravel()
    if si == len(schedule):
        assert g == 1, "recursion must bottom out on a single processor"
        a = m.get_rows(flat, key_a).reshape(G, s, s)
        b = m.get_rows(flat, key_b).reshape(G, s, s)
        m.flop_rows(flat, 2 * s * s * s - s * s)
        m.put_rows(flat, key_c, (a @ b).reshape(G, s * s))
        return
    t0, n0 = scheme.t0, scheme.n0
    seg = (s // n0) * (s // n0) // g      # per-rank words of one block

    if schedule[si] == "D":
        # Every group walks its t0 subproblems in order; zero communication.
        q_keys = []
        for r in range(t0):
            ka, kb, kq = f"{key_a}.s{r}", f"{key_b}.t{r}", f"{key_c}.q{r}"
            _encode(m, flat, key_a, ka, scheme.U[r : r + 1], seg)
            _encode(m, flat, key_b, kb, scheme.V[r : r + 1], seg)
            _caps(m, ranks, ka, kb, kq, s // n0, schedule, si + 1, scheme)
            m.delete_rows(flat, ka)
            m.delete_rows(flat, kb)
            q_keys.append(kq)
        q = np.stack([m.get_rows(flat, kq) for kq in q_keys], axis=1)
        m.put_rows(flat, key_c, _combine(m, flat, scheme.W, q).reshape(len(flat), -1))
        for kq in q_keys:
            m.delete_rows(flat, kq)
        return

    # BFS: subgroup r of group i is ranks[i, r·g/t0 : (r+1)·g/t0], so all
    # G·t0 subgroups recurse as one call on the (G·t0, g/t0) reshape.
    sub_a, sub_b, sub_c = f"{key_a}.s", f"{key_b}.t", f"{key_c}.q"
    _bfs_scatter(m, ranks, key_a, key_b, sub_a, sub_b, seg, si, scheme)
    _caps(m, ranks.reshape(G * t0, g // t0), sub_a, sub_b, sub_c, s // n0, schedule, si + 1, scheme)
    m.delete_rows(flat, sub_a)
    m.delete_rows(flat, sub_b)
    _bfs_gather(m, ranks, sub_c, key_c, seg, si, scheme)


def _combine(m: Machine, flat: np.ndarray, coeffs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``out[:, i] = Σ_q coeffs[i, q]·blocks[:, q]`` on every rank at once.

    ``blocks`` is ``(ranks, q, seg)``.  Each sum accumulates term by term in
    q order, skipping zero coefficients, exactly as one rank would, so the
    result is bit-identical to the per-rank arithmetic; flops are charged.
    """
    n_ranks, _, seg = blocks.shape
    out = np.empty((n_ranks, len(coeffs), seg))
    terms = 0
    for i, row in enumerate(coeffs):
        acc = out[:, i]
        first = True
        for q, c in enumerate(row):
            if c == 0:
                continue
            term = blocks[:, q] if c == 1 else c * blocks[:, q]
            if first:
                acc[...] = term
                first = False
            else:
                acc += term
            terms += 1
        if first:
            acc[...] = 0.0
    m.flop_rows(flat, terms * seg)
    return out


def _encode(
    m: Machine, flat: np.ndarray, key: str, out_key: str, coeffs: np.ndarray, seg: int
) -> np.ndarray:
    """Store the linear combinations ``coeffs`` of ``key``'s n₀² block
    chunks under ``out_key``, concatenated, on every rank; return them as
    a ``(ranks, len(coeffs), seg)`` array."""
    blocks = m.get_rows(flat, key).reshape(len(flat), -1, seg)
    out = _combine(m, flat, coeffs, blocks)
    m.put_rows(flat, out_key, out.reshape(len(flat), -1))
    return out


def _bfs_scatter(
    m: Machine,
    ranks: np.ndarray,
    key_a: str,
    key_b: str,
    child_a: str,
    child_b: str,
    seg: int,
    si: int,
    scheme: BilinearScheme,
) -> None:
    """Encode S_r/T_r and redistribute them onto the t₀ subgroups.

    Rank at group position ``a`` sends its chunk of S_r (and T_r) to
    position ``a mod g/t₀`` of subgroup r, so each target receives one chunk
    per lane ``a // (g/t₀)``.  Element t of S_r sat at parent position
    ``t mod g = b + lane·g/t₀``, so the child's chunk (t₀·seg words)
    interleaves the t₀ lanes.
    """
    g = ranks.shape[1]
    t0 = scheme.t0
    gsub = g // t0
    flat = ranks.ravel()
    n_ranks = len(flat)
    s_chunks = _encode(m, flat, key_a, "__S", scheme.U, seg)
    t_chunks = _encode(m, flat, key_b, "__T", scheme.V, seg)
    payload = np.concatenate([s_chunks.reshape(-1, seg), t_chunks.reshape(-1, seg)])
    del s_chunks, t_chunks
    # message (rank at (i, a), r) → ranks[i, r·gsub + a mod gsub]; all S
    # messages, then all T messages
    pos = np.arange(t0) * gsub + (np.arange(g) % gsub)[:, None]
    src = np.tile(np.repeat(flat, t0), 2)
    dst = np.tile(ranks[:, pos].ravel(), 2)
    m.exchange_rows(src, dst, "__STin", payload, label=f"caps-bfs-fwd@{si}")
    del payload
    m.delete_rows(flat, "__S")
    m.delete_rows(flat, "__T")
    # each target got S lanes 0..t0-1, then T lanes 0..t0-1: interleave
    got = m.pop_rows(flat, "__STin")
    m.put_rows(flat, child_a, got[:, :t0].transpose(0, 2, 1).reshape(n_ranks, t0 * seg))
    m.put_rows(flat, child_b, got[:, t0:].transpose(0, 2, 1).reshape(n_ranks, t0 * seg))


def _bfs_gather(
    m: Machine,
    ranks: np.ndarray,
    child_c: str,
    key_c: str,
    seg: int,
    si: int,
    scheme: BilinearScheme,
) -> None:
    """Inverse redistribution and local decode into C chunks.

    Parent position ``a = lane·g/t₀ + b`` needs the Q_r elements
    ``t ≡ a (mod g)``: the slice ``[lane::t₀]`` of child b of subgroup r.
    """
    G, g = ranks.shape
    t0 = scheme.t0
    gsub = g // t0
    flat = ranks.ravel()
    n_ranks = len(flat)
    q = m.get_rows(flat, child_c)
    # message (child (i, r, b), lane) → ranks[i, lane·gsub + b]
    pos = np.arange(t0) * gsub + np.arange(gsub)[:, None]
    dst = np.broadcast_to(ranks[:, None, pos], (G, t0, gsub, t0))
    payload = q.reshape(n_ranks, seg, t0).transpose(0, 2, 1).reshape(n_ranks * t0, seg)
    del q
    m.exchange_rows(np.repeat(flat, t0), dst.ravel(), "__Qin", payload, label=f"caps-bfs-bwd@{si}")
    del payload
    m.delete_rows(flat, child_c)
    # each parent got Q_0..Q_{t0-1} in order (sources sorted by subgroup r)
    got = m.pop_rows(flat, "__Qin")
    m.put_rows(flat, key_c, _combine(m, flat, scheme.W, got).reshape(n_ranks, -1))
