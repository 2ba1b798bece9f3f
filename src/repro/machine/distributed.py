"""The simulated distributed-memory machine (§1.1's parallel model).

``p`` processors, each with local memory of size ``M`` words; messages cost
``α + β·n``; words and messages are counted **along the critical path**
(Yang–Miller): transfers that happen simultaneously on disjoint processor
pairs count once, while serialization at one processor is charged in full.

The machine executes *supersteps* against per-rank stores of real numpy
arrays.  Each round is one call with the round's complete message list,
and its critical-path charge is ``max_r (words sent by r + words received
by r)`` — exactly the model's "blocking sends, no overlap of a processor's
own transfers, free parallelism across processors" (§1.1, including its
example where two messages into the same processor serialize).

Algorithms drive the machine in one of two granularities that share every
rule:

* per rank — :meth:`~Machine.put` / :meth:`~Machine.get` /
  :meth:`~Machine.pop` / :meth:`~Machine.flop` and
  :meth:`~Machine.exchange` with a list of :class:`Message` (Cannon,
  SUMMA, 3D, 2.5D and the collectives);
* per row — :meth:`~Machine.put_rows` / :meth:`~Machine.get_rows` /
  :meth:`~Machine.pop_rows` / :meth:`~Machine.delete_rows` /
  :meth:`~Machine.flop_rows` act on a whole rank array at once, row ``i``
  belonging to ``ranks[i]``, and :meth:`~Machine.exchange_rows` sends one
  payload row per message and delivers each destination's rows stacked in
  message order under one key (level-synchronous CAPS).

Both granularities store through one memory-charge rule (rank by rank, in
order, so a row call charges exactly as the same per-rank calls would) and
log through one superstep-tally rule (``np.bincount`` over the round's
non-self messages).

Why a simulator instead of mpi4py: the paper's quantities are *exact word
counts*; real MPI startups, eager/rendezvous thresholds and buffering make
those unobservable (the calibration note for this reproduction says as
much).  Here every send is a numpy array whose size is the charge, and the
numerics still really happen, so every algorithm is verified against
``A @ B`` while its communication is metered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.counters import CommLog, SuperstepRecord

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


class Machine:
    """A ``p``-processor distributed-memory machine with exact accounting.

    Parameters
    ----------
    p:
        Number of processors (ranks 0..p-1).
    memory_limit:
        Optional per-rank capacity in words; :meth:`put` raises
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
        self._store: list[dict[str, np.ndarray]] = [dict() for _ in range(p)]
        # Per-rank tallies are plain-int lists: put/get/flop run once per
        # simulated block transfer (millions of calls in a CAPS sweep), and
        # numpy scalar indexing is an order of magnitude slower than list
        # indexing there.  The public views stay numpy (see mem_peak/flops).
        self._mem_used = [0] * p
        self._mem_peak = [0] * p
        self._flops = [0] * p
        self._flop_phase = [0] * p
        self.critical_flops = 0
        self.log = CommLog()

    @property
    def mem_peak(self) -> np.ndarray:
        """Per-rank peak local-memory words (numpy view of the tallies)."""
        return np.asarray(self._mem_peak, dtype=np.int64)

    @property
    def flops(self) -> np.ndarray:
        """Per-rank arithmetic-operation tallies."""
        return np.asarray(self._flops, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # per-rank storage                                                    #
    # ------------------------------------------------------------------ #

    def put(self, rank: int, key: str, value: np.ndarray) -> None:
        """Store an array in a rank's local memory (replacing any old value)."""
        if rank < 0 or rank >= self.p:
            self._check_rank(rank)
        self._store_one(rank, key, np.ascontiguousarray(value))

    def put_rows(self, ranks, key: str, rows: np.ndarray) -> None:
        """Store ``rows[i]`` under ``key`` on rank ``ranks[i]`` — exactly
        ``put(ranks[i], key, rows[i])`` for each ``i`` in order."""
        ranks = self._ranks(ranks).tolist()
        rows = np.ascontiguousarray(rows)
        if len(rows) != len(ranks):
            raise ValueError(f"put_rows: {len(rows)} rows for {len(ranks)} ranks")
        for rank, row in zip(ranks, rows):
            self._store_one(rank, key, row)

    def _store_one(self, rank: int, key: str, value: np.ndarray) -> None:
        """The one memory-charge rule: store ``value`` under ``key``, charging
        the size change against the rank's capacity and peak."""
        store = self._store[rank]
        old = store.get(key)
        delta = value.size - (old.size if old is not None else 0)
        new_used = self._mem_used[rank] + delta
        if self.memory_limit is not None and new_used > self.memory_limit:
            raise MemoryError(
                f"rank {rank} local memory exceeded: {new_used} > "
                f"{self.memory_limit} words (storing {key!r})"
            )
        store[key] = value
        self._mem_used[rank] = new_used
        if new_used > self._mem_peak[rank]:
            self._mem_peak[rank] = new_used

    def get(self, rank: int, key: str) -> np.ndarray:
        """Fetch a rank's local array (zero cost — locality is free)."""
        if rank < 0 or rank >= self.p:
            self._check_rank(rank)
        try:
            return self._store[rank][key]
        except KeyError:
            raise KeyError(f"rank {rank} has no array {key!r}") from None

    def get_rows(self, ranks, key: str) -> np.ndarray:
        """Stack every rank's ``key`` array into one ``(len(ranks), ...)`` array."""
        return np.array([self.get(r, key) for r in self._ranks(ranks).tolist()])

    def pop(self, rank: int, key: str) -> np.ndarray:
        """Remove and return a local array, releasing its memory."""
        arr = self.get(rank, key)
        del self._store[rank][key]
        self._mem_used[rank] -= int(arr.size)
        return arr

    def pop_rows(self, ranks, key: str) -> np.ndarray:
        """:meth:`get_rows`, then release ``key`` on every rank."""
        return np.array([self.pop(r, key) for r in self._ranks(ranks).tolist()])

    def delete(self, rank: int, key: str) -> None:
        """Release a local array."""
        self.pop(rank, key)

    def delete_rows(self, ranks, key: str) -> None:
        """Release ``key`` on every rank of ``ranks``."""
        for r in self._ranks(ranks).tolist():
            self.pop(r, key)

    def has(self, rank: int, key: str) -> bool:
        self._check_rank(rank)
        return key in self._store[rank]

    def keys(self, rank: int) -> list[str]:
        self._check_rank(rank)
        return sorted(self._store[rank])

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
        Delivery happens after accounting, so a round is read-consistent:
        payloads must be materialized arrays, not views of receive buffers.
        """
        msgs = [m if isinstance(m, Message) else Message(*m) for m in messages]
        self._log_superstep(
            self._ranks([m.src for m in msgs]),
            self._ranks([m.dst for m in msgs]),
            np.array([m.words for m in msgs], dtype=np.int64),
            label,
        )
        for m in msgs:
            self.put(m.dst, m.key, np.array(m.payload, copy=True))

    def exchange_rows(self, src, dst, key: str, payload: np.ndarray, label: str = "") -> None:
        """Execute one superstep whose message ``i`` carries ``payload[i]``
        from rank ``src[i]`` to rank ``dst[i]``.

        Accounting is exactly :meth:`exchange` on the same messages.  Each
        destination receives its rows stacked in message order under one
        ``key`` (a ``(rows received, *payload.shape[1:])`` array).
        """
        src, dst = self._ranks(src), self._ranks(dst)
        payload = np.asarray(payload)
        if not (len(src) == len(dst) == len(payload)):
            raise ValueError(
                f"exchange_rows: {len(src)} sources, {len(dst)} destinations, "
                f"{len(payload)} payload rows"
            )
        row_words = int(np.prod(payload.shape[1:], dtype=np.int64))
        self._log_superstep(src, dst, np.full(len(src), row_words, dtype=np.int64), label)
        if not len(dst):
            return
        order = np.argsort(dst, kind="stable")
        rows = payload[order]                     # fancy indexing: a snapshot
        dests, counts = np.unique(dst[order], return_counts=True)
        ends = np.cumsum(counts).tolist()
        for rank, lo, hi in zip(dests.tolist(), [0] + ends[:-1], ends):
            self._store_one(rank, key, rows[lo:hi])

    def _log_superstep(
        self, src: np.ndarray, dst: np.ndarray, words: np.ndarray, label: str
    ) -> None:
        """The one superstep-tally rule: per-rank words sent/received and
        messages handled over the non-self messages; a round with none is
        not logged."""
        cross = src != dst
        if not cross.any():
            return
        src, dst, words = src[cross], dst[cross], words[cross]
        p = self.p
        n_out = np.bincount(src, minlength=p)
        n_in = np.bincount(dst, minlength=p)
        w_out = np.bincount(src, weights=words, minlength=p).astype(np.int64)
        w_in = np.bincount(dst, weights=words, minlength=p).astype(np.int64)
        n_all = n_out + n_in

        def tally(active: np.ndarray, values: np.ndarray) -> dict[int, int]:
            return dict(zip(active.tolist(), values[active].tolist()))

        self.log.add(
            SuperstepRecord(
                sent=tally(np.flatnonzero(n_out), w_out),
                recv=tally(np.flatnonzero(n_in), w_in),
                msgs=tally(np.flatnonzero(n_all), n_all),
                label=label,
            )
        )

    # ------------------------------------------------------------------ #
    # computation                                                         #
    # ------------------------------------------------------------------ #

    def flop(self, rank: int, count: int) -> None:
        """Charge ``count`` arithmetic operations to a rank (current phase)."""
        if rank < 0 or rank >= self.p:
            self._check_rank(rank)
        self._flop_each((rank,), count)

    def flop_rows(self, ranks, count: int) -> None:
        """Charge ``count`` arithmetic operations to every rank of ``ranks``."""
        self._flop_each(self._ranks(ranks).tolist(), count)

    def _flop_each(self, ranks, count: int) -> None:
        if count < 0:
            raise ValueError("negative flop count")
        for rank in ranks:
            self._flops[rank] += count
            self._flop_phase[rank] += count

    def end_compute_phase(self) -> None:
        """Close a compute phase: the slowest rank's flops join the critical
        path (processors compute in parallel between communication rounds)."""
        self.critical_flops += max(self._flop_phase)
        self._flop_phase = [0] * self.p

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
        return max(self._mem_peak)

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

    def _ranks(self, ranks) -> np.ndarray:
        """Ranks as a flat int64 array, every one checked against [0, p)."""
        arr = np.asarray(ranks, dtype=np.int64).ravel()
        bad = (arr < 0) | (arr >= self.p)
        if bad.any():
            self._check_rank(int(arr[bad][0]))
        return arr
