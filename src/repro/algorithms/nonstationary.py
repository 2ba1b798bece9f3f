"""Uniform non-stationary algorithms (§5.2): a different scheme per level.

The paper's second class: the recursion uses scheme ``schemes[0]`` at the
outermost level, ``schemes[1]`` below it, and so on — uniformly across each
level (all subproblems of a level use the same scheme).  This captures the
practically important hybrids the paper cites ([Douglas et al. 94;
Huss-Lederman et al. 96]): run Strassen for a few levels, then switch to
the classical algorithm; or mix base cases to fit awkward sizes.

§5.2 states the I/O lower bound generalizes to this class; here we provide
the matching *upper-bound implementations* (in-core and I/O-explicit) and
the arithmetic/count machinery, so the experiments can measure how the
exponent interpolates between the constituent ω₀'s.

The I/O recurrence for a level list ``[s₁, s₂, …]`` is

    IO(n, [s₁, rest…]) = t₀(s₁)·IO(n/n₀(s₁), rest) + Θ((n/n₀(s₁))²)

bottoming out in the 3-blocks-resident base case when the subproblem fits.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.io_strassen import StrassenIOReport, _dfs_counts, _NoBaseCase
from repro.cdag.schemes import BilinearScheme, get_scheme

__all__ = [
    "nonstationary_multiply",
    "nonstationary_io",
    "nonstationary_flops",
    "strassen_with_cutoff_levels",
]


def _resolve(schemes) -> list[BilinearScheme]:
    resolved = [get_scheme(s) if isinstance(s, str) else s for s in schemes]
    for s in resolved:
        if not s.is_square:
            raise ValueError(
                f"non-stationary recursion splits square blocks; scheme "
                f"{s.name!r} has shape {s.shape}"
            )
    return resolved


def nonstationary_multiply(A: np.ndarray, B: np.ndarray, schemes) -> np.ndarray:
    """Multiply with a per-level scheme list; classical below the last level.

    ``schemes`` is a sequence of registry names / scheme objects applied
    outermost-first.  When the list is exhausted (or the current size is
    not divisible by the level's n₀), numpy's classical product finishes
    the job — the "switch to classical" hybrid of §5.2.
    """
    schemes = _resolve(schemes)
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be equal square matrices")
    return _rec(A, B, schemes, 0)


def _rec(A, B, schemes, level):
    n = A.shape[0]
    if level >= len(schemes) or n % schemes[level].n0 != 0:
        return A @ B
    s = schemes[level]
    n0 = s.n0
    b = n // n0
    Ablocks = [
        A[i * b : (i + 1) * b, j * b : (j + 1) * b]
        for i in range(n0)
        for j in range(n0)
    ]
    Bblocks = [
        B[i * b : (i + 1) * b, j * b : (j + 1) * b]
        for i in range(n0)
        for j in range(n0)
    ]
    Cblocks = s.apply_blocked(Ablocks, Bblocks, lambda X, Y: _rec(X, Y, schemes, level + 1))
    C = np.empty_like(A)
    for i in range(n0):
        for j in range(n0):
            C[i * b : (i + 1) * b, j * b : (j + 1) * b] = Cblocks[i * n0 + j]
    return C


def nonstationary_io(n: int, M: int, schemes) -> StrassenIOReport:
    """I/O of the depth-first non-stationary recursion (exact counts).

    The level list feeds the same recurrence as
    :func:`~repro.algorithms.io_strassen.dfs_io_model`, one scheme per
    level, so the counts equal the reference simulation
    ``dfs_io(n, M, schemes)`` (the tests pin this).  The recursion stops at
    the first size whose three blocks fit (``3·s² ≤ M``); a level list too
    short to get there, or a size a level's n₀ does not divide, raises
    ``ValueError``.
    """
    schemes = _resolve(schemes)
    try:
        counter, mults, _ = _dfs_counts((n, n, n), schemes, M)
    except _NoBaseCase as stuck:
        size, level = stuck.shape[0], stuck.level
        if level == len(schemes):
            raise ValueError(
                f"scheme list exhausted at size {size} with 3·{size}² > M={M}"
            ) from None
        raise ValueError(
            f"size {size} not divisible by level-{level} n0={schemes[level].n0}"
        ) from None
    label = "+".join(s.name for s in schemes)
    return StrassenIOReport(
        n=n,
        M=M,
        scheme=f"nonstat[{label}]",
        counter=counter,
        base_size=-1,
        n_base_multiplies=mults,
    )


def nonstationary_flops(n: int, schemes) -> int:
    """Total arithmetic count of the non-stationary recursion (classical
    below the last level)."""
    schemes = _resolve(schemes)

    def go(size: int, level: int) -> int:
        if level >= len(schemes) or size % schemes[level].n0 != 0:
            return 2 * size**3 - size * size
        s = schemes[level]
        sub = size // s.n0
        return s.t0 * go(sub, level + 1) + s.n_additions * sub * sub

    return go(n, 0)


def strassen_with_cutoff_levels(n: int, levels: int) -> list[str]:
    """The classic practical hybrid: ``levels`` Strassen steps, classical
    after (returned as a scheme list for the functions above)."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    return ["strassen"] * levels
