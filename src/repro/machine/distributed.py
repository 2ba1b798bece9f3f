"""The simulated distributed-memory machine (§1.1's parallel model).

``p`` processors, each with local memory of size ``M`` words; messages cost
``α + β·n``; words and messages are counted **along the critical path**
(Yang–Miller): transfers that happen simultaneously on disjoint processor
pairs count once, while serialization at one processor is charged in full.

The machine executes *supersteps*: algorithms run rank-by-rank Python code
against per-rank stores of real numpy arrays, and call :meth:`exchange`
with the round's complete message list.  The round's critical-path charge
is ``max_r (words sent by r + words received by r)`` — exactly the model's
"blocking sends, no overlap of a processor's own transfers, free
parallelism across processors" (§1.1, including its example where two
messages into the same processor serialize).

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
        self._log_stack: list[CommLog] = [self.log]

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
        value = np.ascontiguousarray(value)
        if rank < 0 or rank >= self.p:
            self._check_rank(rank)
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

    def pop(self, rank: int, key: str) -> np.ndarray:
        """Remove and return a local array, releasing its memory."""
        arr = self.get(rank, key)
        del self._store[rank][key]
        self._mem_used[rank] -= int(arr.size)
        return arr

    def delete(self, rank: int, key: str) -> None:
        """Release a local array."""
        self.pop(rank, key)

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
        step = SuperstepRecord(label=label)
        deliveries: list[Message] = []
        for m in messages:
            if not isinstance(m, Message):
                m = Message(*m)
            self._check_rank(m.src)
            self._check_rank(m.dst)
            if m.src == m.dst:
                deliveries.append(m)
                continue
            step.sent[m.src] = step.sent.get(m.src, 0) + m.words
            step.recv[m.dst] = step.recv.get(m.dst, 0) + m.words
            step.msgs[m.src] = step.msgs.get(m.src, 0) + 1
            step.msgs[m.dst] = step.msgs.get(m.dst, 0) + 1
            deliveries.append(m)
        if step.sent or step.recv:
            self._log_stack[-1].add(step)
        for m in deliveries:
            self.put(m.dst, m.key, np.array(m.payload, copy=True))

    # ------------------------------------------------------------------ #
    # parallel regions                                                    #
    # ------------------------------------------------------------------ #

    def parallel(self) -> "_ParallelRegion":
        """Open a parallel region: sibling branches created inside it run
        *concurrently* on disjoint rank groups, so their k-th supersteps
        merge into one combined superstep instead of serializing.

        Usage::

            with machine.parallel() as par:
                for r in range(7):
                    with par.branch():
                        ...   # this branch's exchanges land in its own lane

        The branches must touch disjoint rank sets (asserted at merge time);
        recursive algorithms (CAPS's BFS step) rely on this to be charged
        the critical path of one branch, not the sum of seven.
        """
        return _ParallelRegion(self)

    # ------------------------------------------------------------------ #
    # computation                                                         #
    # ------------------------------------------------------------------ #

    def flop(self, rank: int, count: int) -> None:
        """Charge ``count`` arithmetic operations to a rank (current phase)."""
        if rank < 0 or rank >= self.p:
            self._check_rank(rank)
        if count < 0:
            raise ValueError("negative flop count")
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


class _ParallelRegion:
    """Context manager collecting sibling branch lanes (see Machine.parallel)."""

    def __init__(self, machine: Machine):
        self._m = machine
        self._lanes: list[CommLog] = []

    def __enter__(self) -> "_ParallelRegion":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        # Merge lanes positionally: the region's k-th superstep is the union
        # of every branch's k-th superstep (branches use disjoint ranks).
        depth = max((len(lane.steps) for lane in self._lanes), default=0)
        target = self._m._log_stack[-1]
        for k in range(depth):
            merged = SuperstepRecord(label="par")
            for lane in self._lanes:
                if k >= len(lane.steps):
                    continue
                s = lane.steps[k]
                if not merged.label or merged.label == "par":
                    merged.label = s.label
                for r, w in s.sent.items():
                    if r in merged.sent:
                        raise ValueError(
                            "parallel branches must use disjoint ranks "
                            f"(rank {r} sends in two branches)"
                        )
                    merged.sent[r] = w
                for r, w in s.recv.items():
                    if r in merged.recv:
                        raise ValueError(
                            "parallel branches must use disjoint ranks "
                            f"(rank {r} receives in two branches)"
                        )
                    merged.recv[r] = w
                for r, c in s.msgs.items():
                    if r in merged.msgs:
                        raise ValueError("parallel branches must use disjoint ranks")
                    merged.msgs[r] = c
            if merged.sent or merged.recv:
                target.add(merged)

    def branch(self) -> "_BranchLane":
        return _BranchLane(self)


class _BranchLane:
    """One branch of a parallel region: its supersteps go to a private lane."""

    def __init__(self, region: _ParallelRegion):
        self._region = region
        self._lane = CommLog()

    def __enter__(self) -> "_BranchLane":
        self._region._m._log_stack.append(self._lane)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = self._region._m._log_stack.pop()
        assert popped is self._lane
        if exc_type is None:
            self._region._lanes.append(self._lane)
