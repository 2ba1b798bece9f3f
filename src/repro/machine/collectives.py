"""Collective operations built from point-to-point supersteps.

Costs are *derived* from the actual message pattern, never asserted from a
formula: a broadcast here really performs its ⌈lg g⌉ rounds of sends, so the
words the machine logs are the words a real binomial-tree broadcast moves.
The classical parallel algorithms (SUMMA, 3D, 2.5D) are built on these.

The broadcast, reduction and shift the algorithms use come only in batched
form: each runs over a list of disjoint groups (lists of ranks) at once, so
the recursive algorithms can run them inside processor subsets.  On a real
machine, q rows of a grid shift (or broadcast) at the same time; charging
their rounds as separate supersteps would serialize them on the critical
path.  So the groups share one round structure, with the messages of all
groups merged per round; a single collective is the one-group case.

``allgather``, ``reduce_scatter``, ``scatter`` and ``gather`` act on one
group and have no caller outside the tests.
"""

from __future__ import annotations

import numpy as np

from repro.machine.distributed import Machine, Message

__all__ = [
    "broadcast_many",
    "reduce_many",
    "shift_many",
    "allgather",
    "reduce_scatter",
    "scatter",
    "gather",
]


def _group_index(group: list[int], rank: int) -> int:
    try:
        return group.index(rank)
    except ValueError:
        raise ValueError(f"rank {rank} not in group {group}") from None


def allgather(
    m: Machine, group: list[int], key: str, out_key: str, label: str = "allgather"
) -> None:
    """Recursive-doubling allgather: every rank ends with the concatenation
    (in group order) of all ranks' ``key`` arrays under ``out_key``.

    Non-power-of-two groups fall back to a ring (g−1 rounds), which moves
    the same asymptotic volume.
    """
    g = len(group)
    chunks: list[dict[int, np.ndarray]] = [
        {i: m.get(group[i], key)} for i in range(g)
    ]
    if g & (g - 1) == 0:
        step = 1
        while step < g:
            msgs = []
            pairs = []
            for i in range(g):
                j = i ^ step
                if j < g:
                    payload = np.concatenate([chunks[i][t].ravel() for t in sorted(chunks[i])])
                    msgs.append(Message(group[i], group[j], f"__ag_{key}_{i}", payload))
                    pairs.append((i, j))
            m.exchange(msgs, label=label)
            new_chunks = [dict(c) for c in chunks]
            for i, j in pairs:
                new_chunks[j].update(chunks[i])
                m.delete(group[j], f"__ag_{key}_{i}")
            chunks = new_chunks
            step *= 2
    else:
        for r in range(g - 1):
            msgs = []
            for i in range(g):
                j = (i + 1) % g
                piece = (i - r) % g
                msgs.append(Message(group[i], group[j], f"__ag_{key}_{piece}", chunks[i][piece]))
            m.exchange(msgs, label=label)
            for i in range(g):
                piece = (i - r) % g
                j = (i + 1) % g
                chunks[j][piece] = m.pop(group[j], f"__ag_{key}_{piece}")
    for i in range(g):
        full = np.concatenate([chunks[i][t].ravel() for t in range(g)])
        m.put(group[i], out_key, full)


def reduce_scatter(
    m: Machine, group: list[int], key: str, out_key: str, label: str = "reduce_scatter"
) -> None:
    """Pairwise-exchange reduce-scatter: ``key`` holds g equal slabs on every
    rank; rank i ends with the group-sum of slab i under ``out_key``.

    g−1 cyclic rounds; in round d, rank i sends its local contribution to
    slab (i+d) mod g directly to that slab's owner.  Moves the
    bandwidth-optimal (g−1)/g of the data per rank.
    """
    g = len(group)
    slabs = {i: np.array_split(m.get(group[i], key).ravel(), g) for i in range(g)}
    acc = {i: slabs[i][i].copy() for i in range(g)}
    for d in range(1, g):
        msgs = []
        for i in range(g):
            j = (i + d) % g
            msgs.append(Message(group[i], group[j], f"__rs_{key}", slabs[i][j]))
        m.exchange(msgs, label=label)
        for i in range(g):
            incoming = m.pop(group[i], f"__rs_{key}")
            acc[i] = acc[i] + incoming
            m.flop(group[i], int(incoming.size))
    for i in range(g):
        m.put(group[i], out_key, acc[i])


def scatter(
    m: Machine, group: list[int], root: int, key: str, out_key: str, label: str = "scatter"
) -> None:
    """Root splits ``key`` into g equal slabs and sends slab i to group[i]."""
    g = len(group)
    data = m.get(root, key)
    slabs = np.array_split(data.ravel(), g)
    msgs = []
    for i in range(g):
        if group[i] == root:
            m.put(root, out_key, slabs[i].copy())
        else:
            msgs.append(Message(root, group[i], out_key, slabs[i]))
    m.exchange(msgs, label=label)


def gather(
    m: Machine, group: list[int], root: int, key: str, out_key: str, label: str = "gather"
) -> None:
    """Inverse of scatter: root concatenates all ranks' ``key`` arrays."""
    msgs = []
    parts: dict[int, np.ndarray] = {}
    for i, r in enumerate(group):
        if r == root:
            parts[i] = m.get(r, key)
        else:
            msgs.append(Message(r, root, f"__ga_{key}_{i}", m.get(r, key)))
    m.exchange(msgs, label=label)
    for i, r in enumerate(group):
        if r != root:
            parts[i] = m.pop(root, f"__ga_{key}_{i}")
    m.put(root, out_key, np.concatenate([parts[i].ravel() for i in range(len(group))]))


def _assert_disjoint(groups: list[list[int]]) -> None:
    seen: set[int] = set()
    for g in groups:
        for r in g:
            if r in seen:
                raise ValueError("batched collectives require disjoint groups")
            seen.add(r)


def shift_many(
    m: Machine, groups: list[list[int]], key: str, offset: int, label: str = "shift"
) -> None:
    """Simultaneous cyclic shifts in many disjoint groups (one superstep)."""
    _assert_disjoint(groups)
    msgs = []
    for group in groups:
        g = len(group)
        payloads = {i: m.get(group[i], key) for i in range(g)}
        for i in range(g):
            msgs.append(Message(group[i], group[(i + offset) % g], key, payloads[i]))
    m.exchange(msgs, label=label)


def broadcast_many(
    m: Machine, groups_roots: list[tuple[list[int], int]], key: str, label: str = "bcast"
) -> None:
    """Simultaneous binomial-tree broadcasts of ``key`` in many disjoint groups.

    ⌈lg g⌉ rounds; in the round with distance ``step``, the ranks at
    root-relative positions ``[0, step)`` (which already hold the value)
    send to positions ``[step, 2·step)``.  Rounds are shared: every group
    whose size exceeds ``step`` contributes its sends, and all of them form
    one superstep.
    """
    _assert_disjoint([g for g, _ in groups_roots])
    if not groups_roots:
        return
    max_g = max(len(g) for g, _ in groups_roots)
    ris = [_group_index(g, root) for g, root in groups_roots]
    step = 1
    while step < max_g:
        msgs = []
        for (group, _root), ri in zip(groups_roots, ris):
            g = len(group)
            for q in range(step):
                tq = q + step
                if tq < g:
                    src = group[(ri + q) % g]
                    dst = group[(ri + tq) % g]
                    msgs.append(Message(src, dst, key, m.get(src, key)))
        if msgs:
            m.exchange(msgs, label=label)
        step *= 2


def reduce_many(
    m: Machine,
    groups_roots: list[tuple[list[int], int]],
    key: str,
    out_key: str | None = None,
    label: str = "reduce",
) -> None:
    """Simultaneous binomial-tree sum-reductions of ``key`` in many disjoint groups.

    The mirror of :func:`broadcast_many`: with ``step`` halving, root-relative
    positions ``[step, 2·step)`` send their partials to ``[0, step)``, which
    accumulate.  Each root ends with its group sum under ``out_key``
    (default: ``key``); other ranks' partials are consumed.
    """
    _assert_disjoint([g for g, _ in groups_roots])
    out_key = out_key or key
    if not groups_roots:
        return
    states = []
    for group, root in groups_roots:
        g = len(group)
        ri = _group_index(group, root)
        partial = {q: m.get(group[(ri + q) % g], key).copy() for q in range(g)}
        states.append((group, ri, partial))
    max_g = max(len(g) for g, _ in groups_roots)
    step = 1
    while step < max_g:
        step *= 2
    step //= 2
    while step >= 1:
        msgs = []
        todo = []
        for group, ri, partial in states:
            g = len(group)
            for q in range(step, min(2 * step, g)):
                if q in partial:
                    src = group[(ri + q) % g]
                    dst = group[(ri + q - step) % g]
                    msgs.append(Message(src, dst, f"__red_{key}", partial[q]))
                    todo.append((group, ri, partial, q, q - step))
        if msgs:
            m.exchange(msgs, label=label)
            for group, ri, partial, q_src, q_dst in todo:
                rank_dst = group[(ri + q_dst) % len(group)]
                incoming = m.pop(rank_dst, f"__red_{key}")
                partial[q_dst] = partial[q_dst] + incoming
                m.flop(rank_dst, int(incoming.size))
                del partial[q_src]
        step //= 2
    for (_, root), (_, _, partial) in zip(groups_roots, states):
        m.put(root, out_key, partial[0])
