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
batched collectives all run this way; these row calls are the only way to
drive the machine.  Reads (:meth:`~Machine.get_rows`,
:meth:`~Machine.pop_rows`) return copies or read-only per-rank arrays, so
nothing a caller holds changes under a later store.

Every store goes through one memory-charge rule (vectorised over the rank
array, in order: the first rank over the limit raises after the ranks
before it are stored) and every round through one superstep-tally rule
(``np.bincount`` over the round's non-self messages into the
:class:`~repro.machine.counters.CommLog`).  Pricing the tallies in time is
:meth:`Topology.time_from_steps <repro.topology.Topology.time_from_steps>`'s
job, not the machine's.

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

import numpy as np

from repro.machine.counters import CommLog

__all__ = ["Machine"]


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
    ``holders`` counts the ranks that hold it.
    """

    __slots__ = ("rows", "held", "words", "holders")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.held = np.zeros(len(rows), dtype=bool)
        self.words = np.zeros(len(rows), dtype=np.int64)
        self.holders = 0


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
    """

    def __init__(self, p: int, memory_limit: int | None = None):
        if p < 1:
            raise ValueError("need at least one processor")
        self.p = int(p)
        self.memory_limit = memory_limit
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

    def put_rows(self, ranks, key: str, rows: np.ndarray) -> None:
        """Store a copy of ``rows[i]`` under ``key`` on rank ``ranks[i]``
        (replacing any old value), charging the ranks in order.

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
                slab.rows[idx] = rows
                return slab
            if slab.holders > np.count_nonzero(slab.held[idx]):
                if dense:
                    kept = np.flatnonzero(slab.held)
                    slab.rows = _objects(slab.rows[kept], self.p, kept)
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

    def get_rows(self, ranks, key: str) -> np.ndarray:
        """Every rank's ``key`` array (zero cost — locality is free) as one
        row block: a ``(len(ranks), ...)`` copy when the key's holders agree
        on shape, else an object array of the (read-only) per-rank arrays."""
        idx = self._ranks(ranks)
        if not len(idx):
            return np.empty((0,))
        return self._held(key, idx).rows[idx]

    def pop_rows(self, ranks, key: str) -> np.ndarray:
        """:meth:`get_rows`, then release ``key`` on every rank (distinct)."""
        idx = self._ranks(ranks, distinct=True)
        if not len(idx):
            return np.empty((0,))
        slab = self._held(key, idx)
        rows = slab.rows[idx]
        self._release(key, slab, idx)
        return rows

    def delete_rows(self, ranks, key: str) -> None:
        """Release ``key`` on every rank of ``ranks`` (distinct)."""
        idx = self._ranks(ranks, distinct=True)
        if len(idx):
            self._release(key, self._held(key, idx), idx)

    def has(self, rank: int, key: str) -> bool:
        rank = self._check_rank(rank)
        slab = self._slabs.get(key)
        return slab is not None and bool(slab.held[rank])

    def keys(self, rank: int) -> list[str]:
        rank = self._check_rank(rank)
        return sorted(k for k, slab in self._slabs.items() if slab.held[rank])

    def mem_used(self, rank: int) -> int:
        return int(self._mem_used[self._check_rank(rank)])

    # ------------------------------------------------------------------ #
    # communication                                                       #
    # ------------------------------------------------------------------ #

    def exchange_rows(
        self, src, dst, key: str, payload: np.ndarray, label: str = "", *, stacked: bool = True
    ) -> None:
        """Execute one superstep whose message ``i`` carries ``payload[i]``
        from rank ``src[i]`` to rank ``dst[i]``.

        Self-sends are local copies and cost nothing (but are delivered).
        Delivery happens after accounting and stores a copy.  With
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

    def flop_rows(self, ranks, count) -> None:
        """Charge ``count`` arithmetic operations (one count for all, or one
        per rank) to every rank of ``ranks`` in the current compute phase."""
        idx = self._ranks(ranks)
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

    def _check_rank(self, rank: int) -> int:
        """One rank: an integer in [0, p)."""
        rank = operator.index(rank)
        if not (0 <= rank < self.p):
            raise ValueError(f"rank {rank} out of range [0, {self.p})")
        return rank

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
