"""Collective operations built from point-to-point supersteps.

Costs are *derived* from the actual message pattern, never asserted from a
formula: a broadcast here really performs its ⌈lg g⌉ rounds of sends, so the
words the machine logs are the words a real binomial-tree broadcast moves.
The classical parallel algorithms (Cannon, SUMMA, 3D, 2.5D) are built on
these.

The broadcast, reduction and shift come only in batched form: each runs over a list of disjoint groups (lists of ranks) at once, so
the recursive algorithms can run them inside processor subsets.  On a real
machine, q rows of a grid shift (or broadcast) at the same time; charging
their rounds as separate supersteps would serialize them on the critical
path.  So the groups share one round structure, and each round is one
:meth:`~repro.machine.distributed.Machine.exchange_rows` over the rank
arrays of all groups (groups may differ in size); a single collective is
the one-group case.  Receivers hold each array as sent.
"""

from __future__ import annotations

import numpy as np

from repro.machine.distributed import Machine, row_words

__all__ = ["broadcast_many", "reduce_many", "shift_many"]


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
