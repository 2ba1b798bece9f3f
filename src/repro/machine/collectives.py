"""Collective operations built from point-to-point supersteps.

Costs are *derived* from the actual message pattern, never asserted from a
formula: a broadcast here really performs its ⌈lg g⌉ rounds of sends, so the
words the machine logs are the words a real binomial-tree broadcast moves.
The classical parallel algorithms (Cannon, SUMMA, 3D, 2.5D) are built on
these.

The broadcast, reduction and shift the algorithms use come only in batched
form: each runs over a list of disjoint groups (lists of ranks) at once, so
the recursive algorithms can run them inside processor subsets.  On a real
machine, q rows of a grid shift (or broadcast) at the same time; charging
their rounds as separate supersteps would serialize them on the critical
path.  So the groups share one round structure, and each round is one
:meth:`~repro.machine.distributed.Machine.exchange_rows` over the rank
arrays of all groups (groups may differ in size); a single collective is
the one-group case.  Receivers hold each array as sent.

``allgather``, ``reduce_scatter``, ``scatter`` and ``gather`` act on one
group through the per-rank calls and have no caller outside the tests.
"""

from __future__ import annotations

import numpy as np

from repro.machine.distributed import Machine, Message, row_words

__all__ = [
    "broadcast_many",
    "reduce_many",
    "shift_many",
    "allgather",
    "reduce_scatter",
    "scatter",
    "gather",
]


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


def _flat_groups(groups) -> tuple[np.ndarray, np.ndarray]:
    """All groups' ranks concatenated in order, and each group's size;
    raises unless the groups are disjoint."""
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *(np.asarray(g, dtype=np.int64) for g in groups)])
    s = np.sort(flat)
    if (s[1:] == s[:-1]).any():
        raise ValueError("batched collectives require disjoint groups")
    return flat, sizes


def _rooted(groups_roots) -> np.ndarray:
    """The groups as a ``(G, W)`` rank array in root-relative order: row i,
    column q holds ``group[(ri + q) % g]`` (ri the root's position), padded
    with −1 to the power of two ``W`` ≥ the largest group."""
    flat, sizes = _flat_groups([g for g, _ in groups_roots])
    roots = np.array([root for _, root in groups_roots], dtype=np.int64)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    hit = np.flatnonzero(flat == roots[group_of])   # ≤ one per group, in group order
    if len(hit) < len(sizes):
        lost = np.setdiff1d(np.arange(len(sizes)), group_of[hit])[0]
        group, root = groups_roots[lost]
        raise ValueError(f"rank {root} not in group {list(group)}")
    starts = np.cumsum(sizes) - sizes
    g = sizes[:, None]
    q = np.arange(1 << (int(sizes.max()) - 1).bit_length())
    pos = starts[:, None] + ((hit - starts)[:, None] + q) % g
    return np.where(q < g, flat[pos], -1)


def shift_many(
    m: Machine, groups: list[list[int]], key: str, offset: int, label: str = "shift"
) -> None:
    """Simultaneous cyclic shifts in many disjoint groups (one superstep):
    ``group[i]`` sends its ``key`` array to ``group[(i + offset) % g]``."""
    src, sizes = _flat_groups(groups)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    pos = np.arange(len(src)) - starts
    dst = src[starts + (pos + offset) % np.repeat(sizes, sizes)]
    m.exchange_rows(src, dst, key, m.get_rows(src, key), label=label, stacked=False)


def broadcast_many(
    m: Machine, groups_roots: list[tuple[list[int], int]], key: str, label: str = "bcast"
) -> None:
    """Simultaneous binomial-tree broadcasts of ``key`` in many disjoint groups.

    ⌈lg g⌉ rounds; in the round with distance ``step``, the ranks at
    root-relative positions ``[0, step)`` (which already hold the value)
    send to positions ``[step, 2·step)``.  Rounds are shared: every group
    whose size exceeds ``step`` contributes its sends, and all of them form
    one superstep (one :meth:`~Machine.exchange_rows`).
    """
    if not groups_roots:
        return
    rel = _rooted(groups_roots)
    step = 1
    while step < rel.shape[1]:
        dst = rel[:, step : 2 * step]
        sends = dst >= 0
        src, dst = rel[:, :step][sends], dst[sends]
        m.exchange_rows(src, dst, key, m.get_rows(src, key), label=label, stacked=False)
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
    (default: ``key``).  Every rank's own ``key`` array stays stored (and
    charged); the running partials travel under ``__red_<key>``, which each
    receiver releases after adding.
    """
    out_key = out_key or key
    if not groups_roots:
        return
    rel = _rooted(groups_roots)
    held = rel >= 0
    rows = m.get_rows(rel[held], key)
    partial = np.empty(rel.shape + rows.shape[1:], dtype=rows.dtype)
    partial[held] = rows
    step = rel.shape[1] // 2
    while step >= 1:
        sends = held[:, step : 2 * step]
        src, dst = rel[:, step : 2 * step][sends], rel[:, :step][sends]
        tmp = f"__red_{key}"
        m.exchange_rows(
            src, dst, tmp, partial[:, step : 2 * step][sends], label=label, stacked=False
        )
        incoming = m.pop_rows(dst, tmp)
        acc = partial[:, :step]
        acc[sends] = acc[sends] + incoming
        m.flop_rows(dst, row_words(incoming))
        step //= 2
    m.put_rows(rel[:, 0], out_key, partial[:, 0])
