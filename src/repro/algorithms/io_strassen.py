"""I/O-explicit depth-first Strassen-like multiplication (the Eq. 1 upper bound).

This is the implementation §1.4.1 describes: run the recursion depth-first
(footnote 5); once a subproblem's three blocks fit in fast memory, read the
two inputs, multiply in-core, write the result.  Above the base case, the
linear stages *stream*: each S_r / T_r / C_q combination reads its operands
from slow memory chunk-wise and writes the result back, costing Θ((n/n₀)²)
words per form — the ``O(n²)`` term of ``IO(n) ≤ m₀·IO(n/n₀) + O(n²)``.

Generic over any registered scheme, so the same harness measures the
ω₀-sweep of Theorem 1.3 (E2): Strassen (lg 7), hybrid4 (log₄ 56),
classical2 (3) all run through identical code.

Two engines with *identical accounting*:

* :func:`dfs_io` — the reference simulation against
  :class:`~repro.machine.cache.FastMemory` (every region load/store/free
  really happens, capacity enforced), for one scheme or a per-level list;
* :func:`_dfs_counts` — one recurrence over a shape ``(m, n, p)`` and a
  per-level scheme list.  The recursion is uniform (every subproblem of a
  level has the same shape), so it runs in O(depth) and lets the
  experiments sweep to sizes where the tree has billions of nodes.  The
  square model :func:`dfs_io_model`, the rectangular model
  :func:`rect_dfs_io_model` and
  :func:`~repro.algorithms.nonstationary.nonstationary_io` are calls to it.
  The test suite pins recurrence == simulation across the overlapping range.

The ``base`` parameter exposes the recursion-cutoff ablation: the canonical
choice is the largest ``s ≤ √(M/3)`` reachable from n, and cutting deeper
only adds streaming levels (E1's ablation quantifies the penalty).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.machine.cache import FastMemory
from repro.machine.counters import IOCounter

__all__ = [
    "dfs_io",
    "dfs_io_model",
    "rect_dfs_io_model",
    "StrassenIOReport",
    "canonical_base_size",
]

_uid = count()


def _fresh(prefix: str) -> str:
    return f"{prefix}#{next(_uid)}"


@dataclass(frozen=True)
class StrassenIOReport:
    """Measured I/O of one depth-first run plus its bookkeeping."""

    n: int
    M: int
    scheme: str
    counter: IOCounter
    base_size: int
    n_base_multiplies: int
    #: problem shape (m, n, p); equals (n, n, n) for square runs.
    shape: tuple[int, int, int] | None = None

    @property
    def words(self) -> int:
        return self.counter.words

    @property
    def messages(self) -> int:
        return self.counter.messages


def _nnz_rows(mat) -> list[int]:
    return np.count_nonzero(mat, axis=1).tolist()


def _stream_counts(size_words: int, n_reads: int, free_words: int) -> tuple[int, int, int, int]:
    """(words_read, msgs_read, words_written, msgs_written) of one stream —
    mirrors FastMemory.stream with chunk = free // (n_reads + 1).  Called
    only by :func:`_dfs_counts`, the one I/O recurrence.
    """
    chunk = max(free_words // (n_reads + 1), 1)
    full, rem = divmod(size_words, chunk)
    msgs_per_stream = full + (1 if rem else 0)
    return (
        size_words * n_reads,
        msgs_per_stream * n_reads,
        size_words,
        msgs_per_stream,
    )


def canonical_base_size(n: int, M: int, n0: int) -> int:
    """Largest recursion size whose 3 blocks fit in M, reached from n by /n₀."""
    size = n
    while 3 * size * size > M:
        if n0 < 2:
            # a ⟨1,1,1⟩-style scheme cannot shrink the problem at all
            raise ValueError(
                f"n={n} does not fit (3·{size}² > M={M}) and n0={n0} cannot "
                f"recurse it smaller"
            )
        if size % n0 != 0:
            raise ValueError(
                f"n={n} cannot recurse below size {size} (not divisible by "
                f"n0={n0}) yet 3·{size}² > M={M}"
            )
        size //= n0
    if size < 1:
        raise ValueError("M too small to hold even a 1x1 base case")
    return size


def _check_base(n: int, M: int, n0: int, base: int | None) -> int:
    canonical = canonical_base_size(n, M, n0)
    if base is None:
        return canonical
    if 3 * base * base > M:
        raise ValueError(f"base {base} does not fit: 3·{base}² > M={M}")
    # base must be reachable from n by repeated division by n0
    size = n
    while n0 > 1 and size > base and size % n0 == 0:
        size //= n0
    if size != base:
        raise ValueError(f"base {base} not reachable from n={n} by /{n0}")
    return base


class _NoBaseCase(ValueError):
    """:func:`_dfs_counts` found no base case: ``shape`` at recursion
    ``level`` does not fit, and the level list either ran out
    (``level == len(levels)``) or its scheme does not divide ``shape``."""

    def __init__(self, shape: tuple[int, int, int], level: int):
        super().__init__(f"no base case for shape {shape} at level {level}")
        self.shape = shape
        self.level = level


def _dfs_counts(
    shape: tuple[int, int, int],
    levels: Sequence[BilinearScheme],
    M: int,
    base: int | None = None,
) -> tuple[IOCounter, int, tuple[int, int, int]]:
    """Exact depth-first I/O of one recursion: ``(counter, base multiplies,
    base shape)``.

    ``levels[i]`` is the scheme applied at recursion level ``i``, outermost
    first.  The recursion stops at the first shape whose three blocks fit in
    M (``mn + np + mp ≤ M``) or, given an explicit square ``base``, at the
    first size ``≤ base``.  A base case reads A and B and writes C; above
    it every linear form of the level streams through
    :func:`_stream_counts` against an empty fast memory.  All subproblems
    of one level share a shape, so the totals follow bottom-up:
    ``IO(level) = t₀·IO(level + 1) + streams(level)``.  Raises
    :class:`_NoBaseCase` when no base case is reachable.
    """
    shapes = [shape]
    while True:
        m, n, p = shapes[-1]
        if (m * n + n * p + m * p <= M) if base is None else (max(m, n, p) <= base):
            break
        level = len(shapes) - 1
        if level == len(levels):
            raise _NoBaseCase(shapes[-1], level)
        s = levels[level]
        if m % s.m0 or n % s.n0 or p % s.p0:
            raise _NoBaseCase(shapes[-1], level)
        shapes.append((m // s.m0, n // s.n0, p // s.p0))
    m, n, p = shapes[-1]
    wr, mr, ww, mw, mults = m * n + n * p, 2, m * p, 1, 1
    for level in reversed(range(len(shapes) - 1)):
        s = levels[level]
        m, n, p = shapes[level + 1]
        wr, mr, ww, mw, mults = (s.t0 * x for x in (wr, mr, ww, mw, mults))
        for mat, words in ((s.U, m * n), (s.V, n * p), (s.W, m * p)):
            for n_reads in _nnz_rows(mat):
                a, b, c, d = _stream_counts(words, n_reads, M)
                wr, mr, ww, mw = wr + a, mr + b, ww + c, mw + d
    counter = IOCounter(
        words_read=wr, words_written=ww, messages_read=mr, messages_written=mw
    )
    return counter, mults, shapes[-1]


def dfs_io(
    n: int,
    M: int,
    scheme: BilinearScheme | str | Sequence[BilinearScheme | str] = "strassen",
    base: int | None = None,
) -> StrassenIOReport:
    """Depth-first Strassen-like multiplication against a FastMemory machine.

    Every level above the base writes its m₀ pairs of encoded operands to
    slow memory and reads the m₀ products back for decoding; the base case
    holds 3 blocks resident.  Raises ``ValueError`` when n is not a power
    of n₀ times a feasible base (no silent padding).

    ``scheme`` may also be a per-level list, outermost first (the §5.2
    non-stationary class); the recursion then stops at the first size whose
    three blocks fit, and ``base`` must be ``None``.  This is the reference
    the recurrence behind
    :func:`~repro.algorithms.nonstationary.nonstationary_io` is tested
    against.
    """
    uniform = isinstance(scheme, (str, BilinearScheme))
    levels = [
        get_scheme(s) if isinstance(s, str) else s
        for s in ([scheme] if uniform else scheme)
    ]
    for s in levels:
        if not s.is_square:
            raise ValueError(
                "dfs_io runs the square recursion; use rect_dfs_io_model for "
                f"rectangular scheme {s.name!r}"
            )
    if uniform:
        base = _check_base(n, M, levels[0].n0, base)
        levels *= n.bit_length()  # more levels than any reachable base needs
    elif base is not None:
        raise ValueError("base applies to a single scheme, not a per-level list")
    fm = FastMemory(M)
    nnz = [(_nnz_rows(s.U), _nnz_rows(s.V), _nnz_rows(s.W)) for s in levels]
    n_base = _dfs(fm, n, 0, levels, nnz, base)
    return StrassenIOReport(
        n=n,
        M=M,
        scheme=levels[0].name if uniform else "+".join(s.name for s in levels),
        counter=fm.counter,
        base_size=-1 if base is None else base,
        n_base_multiplies=n_base,
        shape=(n, n, n),
    )


def _dfs(fm, size, level, levels, nnz, base) -> int:
    """Recursive worker; returns the number of base multiplications done.

    Stops at ``size <= base``, or (``base is None``) once the three blocks
    fit in fast memory.
    """
    if (size <= base) if base is not None else (3 * size * size <= fm.M):
        # Read A-block and B-block, multiply in fast memory, write C-block.
        a, b, c = _fresh("A"), _fresh("B"), _fresh("C")
        fm.new_slow(a, size * size)
        fm.new_slow(b, size * size)
        fm.load(a)
        fm.load(b)
        fm.alloc_fast(c, size * size)
        fm.store(c)
        for name in (a, b, c):
            fm.free(name)
            fm.drop(name)
        return 1
    if level == len(levels) or size % levels[level].n0:
        raise ValueError(f"no base case for size {size} at level {level} (M={fm.M})")
    scheme = levels[level]
    u_nnz, v_nnz, w_nnz = nnz[level]
    sub = size // scheme.n0
    sub_words = sub * sub
    total = 0
    for r in range(scheme.t0):
        # S_r = Σ U[r,i]·A_i  and  T_r = Σ V[r,j]·B_j, streamed to slow.
        fm.stream(read_sizes=[sub_words] * u_nnz[r], write_sizes=[sub_words])
        fm.stream(read_sizes=[sub_words] * v_nnz[r], write_sizes=[sub_words])
        total += _dfs(fm, sub, level + 1, levels, nnz, base)
    for q in range(scheme.c_blocks):
        # C_q = Σ W[q,r]·Q_r, streamed.
        fm.stream(read_sizes=[sub_words] * w_nnz[q], write_sizes=[sub_words])
    return total


def dfs_io_model(
    n: int,
    M: int,
    scheme: BilinearScheme | str = "strassen",
    base: int | None = None,
) -> StrassenIOReport:
    """Exact counts of :func:`dfs_io` via the uniform-recursion recurrence.

    The simulation's cost at a node depends only on the subproblem size, so
    :func:`_dfs_counts` evaluates each level once; this runs in O(depth)
    and lets the experiments sweep to sizes where the tree has billions of
    nodes.  Tests assert word- and message-exact agreement with dfs_io.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    if not scheme.is_square:
        raise ValueError(
            "dfs_io_model runs the square recursion; use rect_dfs_io_model "
            f"for rectangular scheme {scheme.name!r}"
        )
    base = _check_base(n, M, scheme.n0, base)
    # base is reachable, so n.bit_length() levels are more than enough
    counter, mults, _ = _dfs_counts((n, n, n), [scheme] * n.bit_length(), M, base)
    return StrassenIOReport(
        n=n,
        M=M,
        scheme=scheme.name,
        counter=counter,
        base_size=base,
        n_base_multiplies=mults,
        shape=(n, n, n),
    )


def rect_dfs_io_model(
    m: int,
    n: int,
    p: int,
    M: int,
    scheme: BilinearScheme | str = "strassen122",
) -> StrassenIOReport:
    """Exact depth-first I/O counts for a rectangular ⟨m₀,n₀,p₀;t₀⟩ recursion.

    The shape ``(m, n, p)`` shrinks componentwise by the scheme shape until
    the three blocks fit in fast memory (``mn + np + mp ≤ M``); above the
    base every linear form streams its operand blocks exactly as in
    :func:`dfs_io_model`, with the A/B/C block sizes now differing.  Applied
    to a square scheme and shape this reproduces ``dfs_io_model``'s counts
    word-for-word (the tests pin this).  Raises when a dimension stops being
    divisible before the blocks fit — no silent padding.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    # Every level that changes the shape halves a dimension, so this many
    # levels reach a base or a non-divisible shape; a list that still runs
    # out means the scheme stopped shrinking the shape.
    levels = [scheme] * (m.bit_length() + n.bit_length() + p.bit_length())
    try:
        counter, mults, base_shape = _dfs_counts((m, n, p), levels, M)
    except _NoBaseCase as stuck:
        mm, nn, pp = stuck.shape
        if stuck.level < len(levels):
            raise ValueError(
                f"shape ({mm},{nn},{pp}) not divisible by scheme shape "
                f"{scheme.shape} yet its blocks exceed M={M}"
            ) from None
        # degenerate ⟨1,1,1⟩ scheme: the recursion makes no progress
        raise ValueError(
            f"shape ({mm},{nn},{pp}) exceeds M={M} but scheme shape "
            f"{scheme.shape} cannot shrink it"
        ) from None
    return StrassenIOReport(
        n=max(m, n, p),
        M=M,
        scheme=scheme.name,
        counter=counter,
        base_size=max(base_shape),
        n_base_multiplies=mults,
        shape=(m, n, p),
    )
