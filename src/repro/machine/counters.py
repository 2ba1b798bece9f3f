"""Cost-accounting records shared by the sequential and parallel machines.

Everything the paper's model charges for is tallied here and nowhere else,
so tests can assert conservation properties (e.g. words sent = words
received) against a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class CommLog:
    """Accumulated parallel-communication record across supersteps."""

    steps: list[SuperstepRecord] = field(default_factory=list)

    def add(self, step: SuperstepRecord) -> None:
        self.steps.append(step)

    @property
    def critical_words(self) -> int:
        """Bandwidth cost along the critical path (Yang–Miller counting)."""
        return sum(s.critical_words() for s in self.steps)

    @property
    def critical_messages(self) -> int:
        """Latency cost along the critical path."""
        return sum(s.critical_messages() for s in self.steps)

    def time(self, alpha: float, beta: float) -> float:
        """α–β critical-path time: ``Σ_steps max_r (α·msgs_r + β·words_r)``.

        The per-superstep coupling makes this the time a machine with
        per-message latency α and per-word cost β actually spends, summed
        along the critical path; it never exceeds the separable estimate
        ``α·critical_messages + β·critical_words``.
        """
        return sum(s.time(alpha, beta) for s in self.steps)

    @property
    def total_words(self) -> int:
        """Aggregate words over all processors (= p × per-proc average)."""
        return sum(s.total_words() for s in self.steps)

    @property
    def n_supersteps(self) -> int:
        return len(self.steps)
