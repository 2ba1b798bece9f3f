"""Cost-accounting records shared by the sequential and parallel machines.

Everything the paper's model charges for is tallied here and nowhere else,
so tests can assert conservation properties (e.g. words sent = words
received) against a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IOCounter", "SuperstepRecord", "CommLog"]


@dataclass
class IOCounter:
    """Sequential two-level machine tallies (words and messages, §1.1).

    A *message* is a maximal bundle of contiguous words (the model lets
    messages range from one word up to what fits in fast memory), so the
    latency cost of footnote 8 is ``messages``, and bandwidth is ``words``.
    """

    words_read: int = 0
    words_written: int = 0
    messages_read: int = 0
    messages_written: int = 0

    @property
    def words(self) -> int:
        """Total bandwidth cost (words moved in either direction)."""
        return self.words_read + self.words_written

    @property
    def messages(self) -> int:
        """Total latency cost (messages in either direction)."""
        return self.messages_read + self.messages_written

    def read(self, n_words: int) -> None:
        """Charge one slow→fast transfer of ``n_words`` contiguous words."""
        if n_words < 0:
            raise ValueError("negative transfer")
        if n_words:
            self.words_read += n_words
            self.messages_read += 1

    def write(self, n_words: int) -> None:
        """Charge one fast→slow transfer of ``n_words`` contiguous words."""
        if n_words < 0:
            raise ValueError("negative transfer")
        if n_words:
            self.words_written += n_words
            self.messages_written += 1

    def read_many(self, n_messages: int, n_words: int) -> None:
        """Charge ``n_messages`` equal slow→fast transfers of ``n_words`` each.

        Identical tallies to calling :meth:`read` in a loop — one bulk update
        instead of Θ(messages) Python calls, which is what lets the streamed
        linear stages of the depth-first recursion charge a whole pass in
        O(1) (zero-word messages are free, exactly as in :meth:`read`).
        """
        if n_messages < 0 or n_words < 0:
            raise ValueError("negative transfer")
        if n_messages and n_words:
            self.words_read += n_messages * n_words
            self.messages_read += n_messages

    def write_many(self, n_messages: int, n_words: int) -> None:
        """Charge ``n_messages`` equal fast→slow transfers of ``n_words`` each
        (the bulk counterpart of :meth:`write`; see :meth:`read_many`)."""
        if n_messages < 0 or n_words < 0:
            raise ValueError("negative transfer")
        if n_messages and n_words:
            self.words_written += n_messages * n_words
            self.messages_written += n_messages

    def merged(self, other: "IOCounter") -> "IOCounter":
        """Sum of two counters (used when composing sub-runs)."""
        return IOCounter(
            self.words_read + other.words_read,
            self.words_written + other.words_written,
            self.messages_read + other.messages_read,
            self.messages_written + other.messages_written,
        )


@dataclass
class SuperstepRecord:
    """One communication round of the parallel machine.

    ``sent[r]``/``recv[r]`` are the word totals per rank; ``msgs[r]`` the
    message counts.  The critical-path charge of the round is
    ``max_r (sent[r] + recv[r])`` words and ``max_r msgs[r]`` messages —
    simultaneous transfers on different processors count once (§1.1), while
    serialization at a single processor is charged in full.
    """

    sent: dict[int, int] = field(default_factory=dict)
    recv: dict[int, int] = field(default_factory=dict)
    msgs: dict[int, int] = field(default_factory=dict)
    label: str = ""

    def critical_words(self) -> int:
        ranks = set(self.sent) | set(self.recv)
        if not ranks:
            return 0
        return max(self.sent.get(r, 0) + self.recv.get(r, 0) for r in ranks)

    def critical_messages(self) -> int:
        if not self.msgs:
            return 0
        return max(self.msgs.values())

    def time(self, alpha: float, beta: float) -> float:
        """α–β time of the round: ``max_r (α·msgs_r + β·(sent_r + recv_r))``.

        This couples latency and bandwidth *per rank* before taking the max,
        so it can be strictly smaller than ``α·critical_messages() +
        β·critical_words()`` when the message-heavy rank and the word-heavy
        rank differ — the honest critical path of the round.
        """
        ranks = set(self.sent) | set(self.recv) | set(self.msgs)
        if not ranks:
            return 0.0
        return max(
            alpha * self.msgs.get(r, 0)
            + beta * (self.sent.get(r, 0) + self.recv.get(r, 0))
            for r in ranks
        )

    def total_words(self) -> int:
        """Total words sent in the round (for conservation checks)."""
        return sum(self.sent.values())


class CommLog:
    """Accumulated parallel-communication record across supersteps.

    Each superstep is kept as dense per-rank int64 rows — words sent, words
    received, messages handled — plus which ranks sent and which received,
    and every total below is one numpy reduction over the stacked
    ``(S, p)`` arrays.  :class:`SuperstepRecord` dicts are built only when
    :attr:`steps` is read.
    """

    _FIELDS = ("sent", "recv", "msgs", "senders", "receivers")

    def __init__(self, p: int = 0):
        self.p = int(p)
        self.labels: list[str] = []
        self._rows: dict[str, list[np.ndarray]] = {f: [] for f in self._FIELDS}
        self._stacked: dict[str, np.ndarray] | None = None
        self._records: list[SuperstepRecord] | None = None

    def record(
        self, sent: np.ndarray, recv: np.ndarray, n_out: np.ndarray, n_in: np.ndarray,
        label: str = "",
    ) -> None:
        """Append one superstep from ``(p,)`` per-rank words sent/received
        and messages sent/received."""
        self._append(label, sent, recv, n_out + n_in, n_out > 0, n_in > 0)

    def add(self, step: SuperstepRecord) -> None:
        """Append a :class:`SuperstepRecord` (ranks in its dicts are kept as
        given, widening the log if a rank is ≥ ``p``)."""
        width = 1 + max([self.p - 1, *step.sent, *step.recv, *step.msgs])
        if width > self.p:
            for rows in self._rows.values():
                rows[:] = [np.pad(row, (0, width - self.p)) for row in rows]
            self.p = width

        def dense(tally: dict[int, int], values=None) -> np.ndarray:
            row = np.zeros(self.p, dtype=np.int64 if values is None else bool)
            row[list(tally)] = list(tally.values()) if values is None else values
            return row

        self._append(
            step.label, dense(step.sent), dense(step.recv), dense(step.msgs),
            dense(step.sent, True), dense(step.recv, True),
        )

    def _append(self, label: str, *rows: np.ndarray) -> None:
        self.labels.append(label)
        for field_rows, row in zip(self._rows.values(), rows):
            field_rows.append(row)
        self._stacked = None
        self._records = None

    def _dense(self) -> dict[str, np.ndarray]:
        if self._stacked is None:
            self._stacked = {
                f: np.array(rows) if rows else np.zeros((0, self.p), dtype=np.int64)
                for f, rows in self._rows.items()
            }
        return self._stacked

    @property
    def steps(self) -> list[SuperstepRecord]:
        """Per-superstep records (built from the dense rows on first read)."""
        if self._records is None:
            d = self._dense()

            def tally(mask: np.ndarray, values: np.ndarray) -> dict[int, int]:
                active = np.flatnonzero(mask)
                return dict(zip(active.tolist(), values[active].tolist()))

            self._records = [
                SuperstepRecord(
                    sent=tally(senders, sent),
                    recv=tally(receivers, recv),
                    msgs=tally(msgs > 0, msgs),
                    label=label,
                )
                for label, sent, recv, msgs, senders, receivers in zip(
                    self.labels, *d.values()
                )
            ]
        return self._records

    @property
    def step_words(self) -> np.ndarray:
        """``(S, p)`` words each rank sent plus received, per superstep."""
        d = self._dense()
        return d["sent"] + d["recv"]

    @property
    def step_msgs(self) -> np.ndarray:
        """``(S, p)`` messages each rank handled, per superstep."""
        return self._dense()["msgs"]

    @property
    def critical_words(self) -> int:
        """Bandwidth cost along the critical path (Yang–Miller counting)."""
        return int(self.step_words.max(axis=1, initial=0).sum())

    @property
    def critical_messages(self) -> int:
        """Latency cost along the critical path."""
        return int(self.step_msgs.max(axis=1, initial=0).sum())

    def time(self, alpha: float, beta: float) -> float:
        """α–β critical-path time: ``Σ_steps max_r (α·msgs_r + β·words_r)``.

        The per-superstep coupling makes this the time a machine with
        per-message latency α and per-word cost β actually spends, summed
        along the critical path; it never exceeds the separable estimate
        ``α·critical_messages + β·critical_words``.  The max runs over the
        ranks active in the step, and the steps are summed in order.
        """
        d = self._dense()
        active = d["senders"] | d["receivers"] | (d["msgs"] > 0)
        per_rank = np.where(active, alpha * d["msgs"] + beta * self.step_words, -np.inf)
        per_step = np.where(active.any(axis=1), per_rank.max(axis=1, initial=-np.inf), 0.0)
        return sum(per_step.tolist())

    @property
    def total_words(self) -> int:
        """Aggregate words over all processors (= p × per-proc average)."""
        return int(self._dense()["sent"].sum())

    @property
    def n_supersteps(self) -> int:
        return len(self.labels)
