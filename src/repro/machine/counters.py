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


@dataclass
class SuperstepRecord:
    """One communication round of the parallel machine, as a plain record.

    ``sent[r]``/``recv[r]`` are the word totals of the ranks that sent or
    received; ``msgs[r]`` the message counts of the ranks that handled any.
    """

    sent: dict[int, int] = field(default_factory=dict)
    recv: dict[int, int] = field(default_factory=dict)
    msgs: dict[int, int] = field(default_factory=dict)
    label: str = ""


class CommLog:
    """Accumulated parallel-communication record across supersteps.

    Each superstep is kept as dense per-rank int64 rows — words sent, words
    received, messages handled — plus which ranks sent and which received,
    and every total below is one numpy reduction over the stacked
    ``(S, p)`` arrays.  :class:`SuperstepRecord` dicts are built only when
    :attr:`steps` is read.
    """

    _FIELDS = ("sent", "recv", "msgs", "senders", "receivers")

    def __init__(self, p: int):
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
        rows = (sent, recv, n_out + n_in, n_out > 0, n_in > 0)
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

    @property
    def total_words(self) -> int:
        """Aggregate words over all processors (= p × per-proc average)."""
        return int(self._dense()["sent"].sum())

    @property
    def n_supersteps(self) -> int:
        return len(self.labels)
