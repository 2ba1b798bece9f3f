"""The simulated distributed-memory machine (§1.1's parallel model).

``p`` processors, each with local memory of size ``M`` words; messages cost
``α + β·n``; words and messages are counted **along the critical path**
(Yang–Miller): transfers that happen simultaneously on disjoint processor
pairs count once, while serialization at one processor is charged in full.

The machine executes *supersteps* against a store of real numpy arrays.
Each round is one call with the round's complete message list, and its
critical-path charge is ``max_r (words sent by r + words received by r)``
— exactly the model's "blocking sends, no overlap of a processor's
own transfers, free parallelism across processors" (§1.1, including its
example where two messages into the same processor serialize).

The store is one *slab* per key: a ``(p, *row_shape)`` array whose row
``r`` is rank ``r``'s array, plus a ``(p,)`` vector of the words each rank
holds under the key (per-rank arrays instead, when the holders disagree on
shape; see :class:`_Slab`).  Algorithms drive it with rank arrays:
:meth:`~Machine.put_rows` / :meth:`~Machine.get_rows` /
:meth:`~Machine.pop_rows` / :meth:`~Machine.delete_rows` /
:meth:`~Machine.flop_rows` act on a whole rank array at once, row ``i``
belonging to ``ranks[i]``, and :meth:`~Machine.exchange_rows` sends one
payload row per message — each a few fancy-indexed numpy reads and writes,
whatever the number of ranks.  CAPS, Cannon, SUMMA, 2.5D, 3D and the
batched collectives all run this way.  The per-rank calls
(:meth:`~Machine.put`, :meth:`~Machine.get`, :meth:`~Machine.pop`,
:meth:`~Machine.flop`, and :meth:`~Machine.exchange` with a list of
:class:`Message`) are the one-rank and one-message cases of the same rules.

Every store goes through one memory-charge rule (vectorised over the rank
array, in order: the first rank over the limit raises after the ranks
before it are stored, so a row call charges exactly as the same per-rank
calls would) and every round through one superstep-tally rule
(``np.bincount`` over the round's non-self messages into the
:class:`~repro.machine.counters.CommLog`).

Why a simulator instead of mpi4py: the paper's quantities are *exact word
counts*; real MPI startups, eager/rendezvous thresholds and buffering make
those unobservable (the calibration note for this reproduction says as
much).  Here every send is a numpy array whose size is the charge, and the
numerics still really happen, so every algorithm is verified against
``A @ B`` while its communication is metered exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.machine.counters import CommLog

__all__ = ["Machine", "Message"]


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer inside a superstep."""

    src: int
    dst: int
    key: str
    payload: np.ndarray

    @property
    def words(self) -> int:
        return int(self.payload.size)


def row_words(rows: np.ndarray) -> int | np.ndarray:
    """Words per row of a row block: one int for a dense ``(k, *shape)``
    block, a ``(k,)`` array for a ragged block (an object array of per-row
    arrays)."""
    if rows.dtype == object:
        return np.fromiter((a.size for a in rows), dtype=np.int64, count=len(rows))
    return math.prod(rows.shape[1:])


class _Slab:
    """One key's holdings on all ``p`` ranks.

    ``rows`` is ``(p, *row_shape)`` (row ``r`` is rank ``r``'s array) while
    the holders agree on shape and dtype, and a ``(p,)`` object array of
    per-rank arrays once they do not.  ``held[r]`` says whether rank ``r``
    holds the key and ``words[r]`` how many words (0 where it does not);
    ``holders`` counts the ranks that hold it.  ``shared`` records that
    :meth:`Machine.get` handed out a view of ``rows``: the next write
    copies ``rows`` first (copy-on-write), so a returned array never
    changes under a later put.
    """

    __slots__ = ("rows", "held", "words", "holders", "shared")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.held = np.zeros(len(rows), dtype=bool)
        self.words = np.zeros(len(rows), dtype=np.int64)
        self.holders = 0
        self.shared = False


def _frozen(row) -> np.ndarray:
    """A read-only copy: arrays held per rank are replaced, never mutated."""
    arr = np.array(row)
    arr.flags.writeable = False
    return arr


def _objects(rows, p: int, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of a ``(p,)`` object array set to frozen copies of ``rows``."""
    out = np.empty(p, dtype=object)
    for r, row in zip(idx.tolist(), rows):
        out[r] = _frozen(row)
    return out


class Machine:
    """A ``p``-processor distributed-memory machine with exact accounting.

    Parameters
    ----------
    p:
        Number of processors (ranks 0..p-1).
    memory_limit:
        Optional per-rank capacity in words; storing raises
        ``MemoryError`` when a rank would exceed it.  ``None`` disables
        enforcement but peaks are still tracked (the paper's "as long as we
        never use more than M" clause).
    alpha, beta:
        Latency / inverse-bandwidth for the α–β time estimate; the counted
        words/messages are independent of these.
    """

    def __init__(
        self,
        p: int,
        memory_limit: int | None = None,
        alpha: float = 1.0,
        beta: float = 1.0,
    ):
        if p < 1:
            raise ValueError("need at least one processor")
        self.p = int(p)
        self.memory_limit = memory_limit
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._slabs: dict[str, _Slab] = {}
        self._mem_used = np.zeros(p, dtype=np.int64)
        self._mem_peak = np.zeros(p, dtype=np.int64)
        self._flops = np.zeros(p, dtype=np.int64)
        self._flop_phase = np.zeros(p, dtype=np.int64)
        self.critical_flops = 0
        self.log = CommLog(self.p)

    @property
    def mem_peak(self) -> np.ndarray:
        """Per-rank peak local-memory words."""
        return self._mem_peak.copy()

    @property
    def flops(self) -> np.ndarray:
        """Per-rank arithmetic-operation tallies."""
        return self._flops.copy()

    # ------------------------------------------------------------------ #
    # storage                                                             #
    # ------------------------------------------------------------------ #

    def put(self, rank: int, key: str, value: np.ndarray) -> None:
        """Store a copy of an array in a rank's local memory (replacing any
        old value)."""
        value = np.asarray(value)
        self._store(key, self._rank(rank), value[None], value.size)

    def put_rows(self, ranks, key: str, rows: np.ndarray) -> None:
        """Store ``rows[i]`` under ``key`` on rank ``ranks[i]`` — exactly
        ``put(ranks[i], key, rows[i])`` for each ``i`` in order.

        ``rows`` is a ``(len(ranks), *shape)`` array, or an object array of
        per-rank arrays when their shapes differ.  Ranks must be distinct.
        """
        idx = self._ranks(ranks, distinct=True)
        rows = np.asarray(rows)
        if len(rows) != len(idx):
            raise ValueError(f"put_rows: {len(rows)} rows for {len(idx)} ranks")
        self._store(key, idx, rows, row_words(rows))

    def _store(self, key: str, idx: np.ndarray, rows: np.ndarray, words) -> None:
        """The one memory-charge rule: store ``rows[i]`` under ``key`` on
        rank ``idx[i]`` (distinct ranks), charging each size change against
        the rank's capacity and peak in order; the first rank over the
        limit raises after the ranks before it are stored."""
        slab = self._slabs.get(key)
        used = self._mem_used[idx] + words
        if slab is not None:
            used -= slab.words[idx]
        limit = self.memory_limit
        if limit is not None:
            over = np.flatnonzero(used > limit)
            if len(over):
                k = int(over[0])
                if k:
                    self._store(key, idx[:k], rows[:k], words[:k] if np.ndim(words) else words)
                raise MemoryError(
                    f"rank {int(idx[k])} local memory exceeded: {int(used[k])} > "
                    f"{limit} words (storing {key!r})"
                )
        slab = self._write(key, slab, idx, rows)
        slab.holders += len(idx) - np.count_nonzero(slab.held[idx])
        slab.held[idx] = True
        slab.words[idx] = words
        self._mem_used[idx] = used
        self._mem_peak[idx] = np.maximum(self._mem_peak[idx], used)

    def _write(self, key: str, slab: _Slab | None, idx: np.ndarray, rows: np.ndarray) -> _Slab:
        """Write the rows into ``key``'s slab, choosing its representation
        from the shapes: in place while every holder keeps one shape and
        dtype, a fresh slab when the written ranks are the only holders,
        per-rank arrays otherwise."""
        ragged = rows.dtype == object
        if slab is not None:
            dense = slab.rows.dtype != object
            if (
                dense
                and not ragged
                and slab.rows.dtype == rows.dtype
                and slab.rows.shape[1:] == rows.shape[1:]
            ):
                if slab.shared:
                    slab.rows, slab.shared = slab.rows.copy(), False
                slab.rows[idx] = rows
                return slab
            if slab.holders > np.count_nonzero(slab.held[idx]):
                if dense:
                    kept = np.flatnonzero(slab.held)
                    slab.rows, slab.shared = _objects(slab.rows[kept], self.p, kept), False
                for r, row in zip(idx.tolist(), rows):
                    slab.rows[r] = _frozen(row)
                return slab
        if ragged:
            fresh = _Slab(_objects(rows, self.p, idx))
        else:
            fresh = _Slab(np.empty((self.p, *rows.shape[1:]), dtype=rows.dtype))
            fresh.rows[idx] = rows
        if slab is not None:
            fresh.held, fresh.words, fresh.holders = slab.held, slab.words, slab.holders
        self._slabs[key] = fresh
        return fresh

    def _held(self, key: str, idx: np.ndarray) -> _Slab:
        """``key``'s slab, after checking every rank of ``idx`` holds it."""
        slab = self._slabs.get(key)
        if slab is None or np.count_nonzero(slab.held[idx]) < len(idx):
            first = idx[0] if slab is None else idx[~slab.held[idx]][0]
            raise KeyError(f"rank {int(first)} has no array {key!r}")
        return slab

    def _release(self, key: str, slab: _Slab, idx: np.ndarray) -> None:
        self._mem_used[idx] -= slab.words[idx]
        slab.held[idx] = False
        slab.words[idx] = 0
        slab.holders -= len(idx)
        if not slab.holders:
            del self._slabs[key]

    def get(self, rank: int, key: str) -> np.ndarray:
        """Fetch a rank's local array (zero cost — locality is free) as a
        read-only array that later stores never change."""
        idx = self._rank(rank)
        slab = self._held(key, idx)
        if slab.rows.dtype == object:
            return slab.rows[idx[0]]
        slab.shared = True
        view = slab.rows[idx[0], ...]
        view.flags.writeable = False
        return view

    def get_rows(self, ranks, key: str) -> np.ndarray:
        """Every rank's ``key`` array as one row block: ``(len(ranks), ...)``
        when the key's holders agree on shape, else an object array of
        per-rank arrays."""
        idx = self._ranks(ranks)
        if not len(idx):
            return np.empty((0,))
        return self._held(key, idx).rows[idx]

    def pop(self, rank: int, key: str) -> np.ndarray:
        """Remove and return a local array, releasing its memory."""
        idx = self._rank(rank)
        slab = self._held(key, idx)
        arr = slab.rows[idx[0]] if slab.rows.dtype == object else slab.rows[idx[0], ...].copy()
        self._release(key, slab, idx)
        return arr

    def pop_rows(self, ranks, key: str) -> np.ndarray:
        """:meth:`get_rows`, then release ``key`` on every rank (distinct)."""
        idx = self._ranks(ranks, distinct=True)
        if not len(idx):
            return np.empty((0,))
        slab = self._held(key, idx)
        rows = slab.rows[idx]
        self._release(key, slab, idx)
        return rows

    def delete(self, rank: int, key: str) -> None:
        """Release a local array."""
        idx = self._rank(rank)
        self._release(key, self._held(key, idx), idx)

    def delete_rows(self, ranks, key: str) -> None:
        """Release ``key`` on every rank of ``ranks`` (distinct)."""
        idx = self._ranks(ranks, distinct=True)
        if len(idx):
            self._release(key, self._held(key, idx), idx)

    def has(self, rank: int, key: str) -> bool:
        self._check_rank(rank)
        slab = self._slabs.get(key)
        return slab is not None and bool(slab.held[rank])

    def keys(self, rank: int) -> list[str]:
        self._check_rank(rank)
        return sorted(k for k, slab in self._slabs.items() if slab.held[rank])

    def mem_used(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self._mem_used[rank])

    # ------------------------------------------------------------------ #
    # communication                                                       #
    # ------------------------------------------------------------------ #

    def exchange(self, messages: list[Message] | list[tuple], label: str = "") -> None:
        """Execute one communication superstep.

        ``messages`` may contain raw tuples ``(src, dst, key, payload)``.
        Self-sends are local copies and cost nothing (but are delivered).
        Delivery happens after accounting, in message order, each message
        a one-rank store of a copy of its payload.
        """
        msgs = [m if isinstance(m, Message) else Message(*m) for m in messages]
        src = self._ranks([m.src for m in msgs])
        dst = self._ranks([m.dst for m in msgs])
        self._log_superstep(src, dst, np.array([m.words for m in msgs], dtype=np.int64), label)
        for i, m in enumerate(msgs):
            payload = np.asarray(m.payload)
            self._store(m.key, dst[i : i + 1], payload[None], payload.size)

    def exchange_rows(
        self, src, dst, key: str, payload: np.ndarray, label: str = "", *, stacked: bool = True
    ) -> None:
        """Execute one superstep whose message ``i`` carries ``payload[i]``
        from rank ``src[i]`` to rank ``dst[i]``.

        Accounting is exactly :meth:`exchange` on the same messages.  With
        ``stacked`` (the default) each destination receives its rows stacked
        in message order under one ``key`` — a ``(rows received,
        *payload.shape[1:])`` array — and destinations are stored in rank
        order.  With ``stacked=False`` every destination receives exactly
        one message and holds its row as sent, stored in message order;
        ``payload`` may then be an object array of per-message arrays.
        """
        src, dst = self._ranks(src), self._ranks(dst, distinct=not stacked)
        payload = np.asarray(payload)
        if not (len(src) == len(dst) == len(payload)):
            raise ValueError(
                f"exchange_rows: {len(src)} sources, {len(dst)} destinations, "
                f"{len(payload)} payload rows"
            )
        if stacked and payload.dtype == object:
            raise ValueError("exchange_rows: stacked delivery needs one row shape")
        words = row_words(payload)
        self._log_superstep(src, dst, words, label)
        if not len(dst):
            return
        if not stacked:
            self._store(key, dst, payload, words)
            return
        rows = payload[np.argsort(dst, kind="stable")]    # fancy indexing: a snapshot
        counts = np.bincount(dst, minlength=self.p)
        dests = np.flatnonzero(counts)
        counts = counts[dests]
        if counts.max() * len(dests) == len(dst):          # every destination gets as many
            rows = rows.reshape(len(dests), int(counts[0]), *payload.shape[1:])
        else:
            rows = _objects(np.split(rows, np.cumsum(counts)[:-1]), len(dests), np.arange(len(dests)))
        self._store(key, dests, rows, counts * words)

    def _log_superstep(self, src: np.ndarray, dst: np.ndarray, words, label: str) -> None:
        """The one superstep-tally rule: per-rank words sent/received and
        messages handled over the non-self messages (``words`` per message,
        or one count for all); a round with none is not logged."""
        cross = src != dst
        if not cross.all():
            src, dst = src[cross], dst[cross]
            if np.ndim(words):
                words = words[cross]
        if not len(src):
            return
        p = self.p
        n_out = np.bincount(src, minlength=p)
        n_in = np.bincount(dst, minlength=p)
        if np.ndim(words):
            w_out = np.bincount(src, weights=words, minlength=p).astype(np.int64)
            w_in = np.bincount(dst, weights=words, minlength=p).astype(np.int64)
        else:
            w_out, w_in = n_out * words, n_in * words
        self.log.record(w_out, w_in, n_out, n_in, label)

    # ------------------------------------------------------------------ #
    # computation                                                         #
    # ------------------------------------------------------------------ #

    def flop(self, rank: int, count: int) -> None:
        """Charge ``count`` arithmetic operations to a rank (current phase)."""
        self._flop_at(self._rank(rank), count)

    def flop_rows(self, ranks, count) -> None:
        """Charge ``count`` arithmetic operations (one count for all, or one
        per rank) to every rank of ``ranks``."""
        self._flop_at(self._ranks(ranks), count)

    def _flop_at(self, idx: np.ndarray, count) -> None:
        if np.asarray(count).min(initial=0) < 0:
            raise ValueError("negative flop count")
        np.add.at(self._flops, idx, count)
        np.add.at(self._flop_phase, idx, count)

    def end_compute_phase(self) -> None:
        """Close a compute phase: the slowest rank's flops join the critical
        path (processors compute in parallel between communication rounds)."""
        self.critical_flops += int(self._flop_phase.max())
        self._flop_phase[:] = 0

    # ------------------------------------------------------------------ #
    # results                                                             #
    # ------------------------------------------------------------------ #

    @property
    def critical_words(self) -> int:
        """Bandwidth cost along the critical path."""
        return self.log.critical_words

    @property
    def critical_messages(self) -> int:
        """Latency cost along the critical path."""
        return self.log.critical_messages

    @property
    def max_mem_peak(self) -> int:
        """max_r peak local-memory words — the machine's effective M."""
        return int(self._mem_peak.max())

    def time(self, alpha: float | None = None, beta: float | None = None) -> float:
        """α–β critical-path *time*: ``Σ_steps max_r (α·msgs_r + β·words_r)``.

        Couples latency and bandwidth per rank within each superstep (see
        :meth:`SuperstepRecord.time <repro.machine.counters.SuperstepRecord.time>`),
        so measured runs and analytic α–β formulas are comparable in one
        unit.  Defaults to the machine's own α and β.
        """
        a = self.alpha if alpha is None else float(alpha)
        b = self.beta if beta is None else float(beta)
        return self.log.time(a, b)

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.p):
            raise ValueError(f"rank {rank} out of range [0, {self.p})")

    def _rank(self, rank: int) -> np.ndarray:
        """One rank (an integer, checked against [0, p)) as a rank array."""
        rank = operator.index(rank)
        self._check_rank(rank)
        return np.array([rank])

    def _ranks(self, ranks, distinct: bool = False) -> np.ndarray:
        """Ranks as a flat int64 array: integers only, each in [0, p), and
        with ``distinct`` no rank twice.  One ``np.bincount`` checks all
        three (it rejects negatives, and is longer than p past the top)."""
        arr = np.asarray(ranks)
        if arr.dtype != np.int64:
            if arr.dtype.kind not in "iu" and arr.size:
                raise ValueError(f"ranks must be integers, not {arr.dtype}")
            arr = arr.astype(np.int64)
        arr = arr.ravel()
        try:
            counts = np.bincount(arr, minlength=self.p)
        except ValueError:
            counts = None
        if counts is None or len(counts) > self.p:
            self._check_rank(int(arr[(arr < 0) | (arr >= self.p)][0]))
        if distinct and np.count_nonzero(counts) < len(arr):
            raise ValueError(f"rank {int(np.argmax(counts > 1))} repeated in a row call")
        return arr
