"""Every communication bound in the paper, as executable formulas.

The paper's bounds are asymptotic (Ω/O with unspecified constants).  Each
function here evaluates the bound's *expression* with constant 1, so that
experiments can report measured/bound ratios and exponent fits; the shape
checks in :mod:`repro.experiments` and its tests are about those ratios
being flat/stable, never about absolute equality.

Covered:

* Eq. (1):   sequential upper bound  ``IO ≤ O((n/√M)^lg7 · M)``
* Thm 1.1:   sequential lower bound, Strassen (``ω₀ = lg 7``)
* Thm 1.3:   sequential lower bound, Strassen-like (general ``ω₀``)
* Cor 1.2/1.4: parallel versions (divide by p)
* footnote 8: latency = bandwidth / M
* Table I:   the six parallel memory-regime cells (2D / 3D / 2.5D ×
  classical / Strassen-like) plus the classical general-M row
* §6.1 remark: the 2.5D-style bound's numerator is ω₀-free.
* arXiv:1202.3177 (Ballard–Demmel–Holtz–Lipshitz–Schwartz): the
  *memory-independent* bounds ``Ω(n²/p^(2/ω₀))`` and the perfect
  strong-scaling limit ``p ≤ (n/√M)^ω₀`` where the memory-dependent and
  memory-independent bounds cross (``n³/M^(3/2)`` classically), plus the
  :func:`scaling_regime` classifier saying which bound binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LG7",
    "ScalingRegime",
    "rect_omega0",
    "rect_sequential_io_bound",
    "sequential_io_bound",
    "sequential_io_upper",
    "parallel_io_bound",
    "memory_independent_bound",
    "rect_memory_independent_bound",
    "perfect_scaling_limit",
    "scaling_regime",
    "latency_bound",
    "table1_cell",
    "table1_rows",
    "memory_regimes",
]

#: lg 7 — Strassen's exponent, the paper's headline ω₀.
LG7 = math.log2(7.0)


def rect_omega0(m0: int, n0: int, p0: int, t0: int) -> float:
    """The rectangular exponent ``ω₀ = 3·log_{m₀n₀p₀} t₀``.

    For a recursive ⟨m₀,n₀,p₀; t₀⟩ algorithm (Ballard–Demmel–Holtz–
    Lipshitz–Schwartz, arXiv:1209.2184) the multiplication count after k
    levels is ``t₀^k = ((m₀n₀p₀)^{k/3})^{ω₀}`` — the geometric-mean
    dimension raised to ω₀, reducing to ``log_{n₀} t₀`` in the square case.
    The degenerate ⟨1,1,1;1⟩ shape is assigned 3 by convention.
    """
    volume = m0 * n0 * p0
    if volume < 1 or t0 < 1:
        raise ValueError("scheme dimensions and rank must be >= 1")
    if volume == 1 or t0 == volume:
        return 3.0  # classical rank: exactly 3, no float slop
    return 3.0 * math.log(t0) / math.log(volume)


def rect_sequential_io_bound(m: float, n: float, p: float, M: float, omega0: float = LG7) -> float:
    """Rectangular Theorem 1.3: ``IO = Ω(((mnp)^{1/3}/√M)^ω₀ · M)``.

    The expansion argument on the rectangular ``Dec_k C`` gives the same
    form as the square bound with the matrix dimension replaced by the
    geometric mean ``(mnp)^{1/3}`` — for ``m = m₀^k`` etc. the numerator is
    exactly ``t₀^k``, the count of scalar multiplications.  Below the
    memory-bound regime the trivial bound (read both inputs, write the
    output once) applies; we return the max so sweeps behave sanely.
    """
    if m < 1 or n < 1 or p < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (2.0 <= omega0 <= 3.0):
        raise ValueError("omega0 must lie in [2, 3]")
    n_eff = (m * n * p) ** (1.0 / 3.0)
    expansion_term = (n_eff / math.sqrt(M)) ** omega0 * M
    trivial = m * n + n * p + m * p
    return max(expansion_term, trivial)


def sequential_io_bound(n: float, M: float, omega0: float = LG7) -> float:
    """Theorem 1.1 / 1.3: ``IO = Ω((n/√M)^ω₀ · M)`` with constant 1.

    Valid in the regime the paper cares about (footnote 12): the input does
    not fit in fast memory.  Below that regime the trivial bound ``≥ input``
    applies; we return the max of the two so sweeps behave sanely.
    """
    _check(n, M, omega0)
    expansion_term = (n / math.sqrt(M)) ** omega0 * M
    trivial = 2.0 * n * n  # must at least read A and B once
    return max(expansion_term, trivial)


def sequential_io_upper(n: float, M: float, omega0: float = LG7, n0: int = 2, t0: int = 7) -> float:
    """Eq. (1)'s recurrence solved with explicit constants.

    ``IO(n) ≤ t₀·IO(n/n₀) + c·n²``, cut off when ``3·(n')² ≤ M``:  the
    depth-first implementation reads two blocks and writes one at the base,
    and streams the additions above it.  Returns the closed-form value
    (used as the analytic reference curve next to *measured* DF I/O).
    """
    _check(n, M, omega0)
    if 3 * n * n <= M:
        return 3.0 * n * n
    # number of recursion levels until 3 (n/n0^t)^2 <= M
    t = 0
    size = n
    while 3 * size * size > M and size > n0:
        size /= n0
        t += 1
    # additions cost: sum_{j<t} t0^j * c * (n/n0^j)^2, with c = the number of
    # block reads/writes per level ~ (#linear forms)·3; keep c = 1 shape-wise.
    add_cost = sum(t0**j * (n / n0**j) ** 2 for j in range(t))
    base_cost = t0**t * 3.0 * size * size
    return add_cost + base_cost


def parallel_io_bound(n: float, M: float, p: int, omega0: float = LG7) -> float:
    """Corollary 1.2 / 1.4: per-processor bandwidth ``Ω((n/√M)^ω₀ · M / p)``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    _check(n, M, omega0)
    return (n / math.sqrt(M)) ** omega0 * M / p


def memory_independent_bound(n: float, p: int, omega0: float = LG7) -> float:
    """Memory-independent per-processor bandwidth bound ``Ω(n²/p^(2/ω₀))``.

    Theorem of arXiv:1202.3177: however much local memory each of the p
    processors has, some processor moves ``Ω(n²/p^(2/ω₀))`` words —
    ``n²/p^(2/3)`` for classical (ω₀ = 3), ``n²/p^(2/lg 7)`` for
    Strassen-like recursion.  One processor moves nothing, so the bound is
    0 at p = 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (2.0 <= omega0 <= 3.0):
        raise ValueError("omega0 must lie in [2, 3]")
    if p == 1:
        return 0.0
    return n * n / p ** (2.0 / omega0)


def rect_memory_independent_bound(m: float, n: float, k: float, p: int, omega0: float) -> float:
    """Rectangular memory-independent bound via the geometric-mean dimension.

    As with :func:`rect_sequential_io_bound`, an ⟨m₀,n₀,p₀; t₀⟩ recursion
    on an ``m × n`` by ``n × k`` product obeys the square bound with the
    matrix dimension replaced by ``(mnk)^(1/3)`` and ω₀ from
    :func:`rect_omega0`.
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError("matrix dimensions must be >= 1")
    n_eff = (m * n * k) ** (1.0 / 3.0)
    return memory_independent_bound(n_eff, p, omega0)


def perfect_scaling_limit(n: float, M: float, omega0: float = LG7) -> float:
    """The end of the perfect strong-scaling range: ``p* = (n/√M)^ω₀``.

    Below p* the memory-dependent bound ``(n/√M)^ω₀·M/p`` dominates and
    communication scales perfectly as 1/p; beyond it the p-dependent
    memory-independent floor ``n²/p^(2/ω₀)`` binds instead
    (arXiv:1202.3177 §1).  Classically (ω₀ = 3) this is the familiar
    ``p* = n³/M^(3/2)``.
    """
    _check(n, M, omega0)
    return (n / math.sqrt(M)) ** omega0


@dataclass(frozen=True)
class ScalingRegime:
    """Which communication lower bound binds at one (n, p, M) point."""

    memory_dependent: float    # Cor. 1.2/1.4: (n/√M)^ω₀·M/p
    memory_independent: float  # 1202.3177:   n²/p^(2/ω₀)
    binding: str               # "memory-dependent" | "memory-independent"
    p_limit: float             # perfect_scaling_limit(n, M, ω₀)

    @property
    def bound(self) -> float:
        """The binding (larger) of the two bounds."""
        return max(self.memory_dependent, self.memory_independent)


def scaling_regime(n: float, p: int, M: float, omega0: float = LG7) -> ScalingRegime:
    """Classify which lower bound binds at (n, p, M).

    The two bounds cross exactly at ``p = perfect_scaling_limit(n, M, ω₀)``;
    at the crossover itself (equality) the point is classified as still
    memory-dependent — the last point of the perfect-scaling range.
    """
    md = parallel_io_bound(n, M, p, omega0)
    mi = memory_independent_bound(n, p, omega0)
    # The two expressions are algebraically equal at p = p*; classify the
    # crossover itself as memory-dependent despite float rounding.
    at_crossover = math.isclose(md, mi, rel_tol=1e-9)
    return ScalingRegime(
        memory_dependent=md,
        memory_independent=mi,
        binding="memory-dependent" if (md >= mi or at_crossover) else "memory-independent",
        p_limit=perfect_scaling_limit(n, M, omega0),
    )


def latency_bound(bandwidth_bound: float, M: float) -> float:
    """Footnote 8: messages ≥ words / max-message-size, message ≤ M words."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return bandwidth_bound / M


# ---------------------------------------------------------------------- #
# Table I                                                                 #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Cell:
    """One cell of Table I: the memory regime and the bound expression."""

    regime: str              # "2D", "3D", or "2.5D"
    algorithm_class: str     # "classical" or "strassen-like"
    memory: float            # the M implied by the regime
    bound: float             # the bandwidth lower bound
    exponent_of_p: float     # the p-exponent in n²/p^e (for fit checks)
    attained_by: str         # the algorithm the paper credits


def memory_regimes(n: float, p: int, c: float = 1.0) -> dict[str, float]:
    """The three local-memory regimes of §6.1 / Table I."""
    return {
        "2D": n * n / p,
        "3D": n * n / p ** (2.0 / 3.0),
        "2.5D": c * n * n / p,
    }


def table1_cell(
    regime: str,
    algorithm_class: str,
    n: float,
    p: int,
    c: float = 1.0,
    omega0: float = LG7,
) -> Table1Cell:
    """Evaluate one Table I cell.

    The bound value is computed by substituting the regime's M into
    Corollary 1.2/1.4 (exactly the table's own derivation), so the closed
    forms below are implied rather than transcribed:

    Classical column (ω₀ = 3):

    * 2D:    Ω(n² / p^(1/2))          — attained by [Cannon 1969]
    * 3D:    Ω(n² / p^(2/3))          — [Dekel et al. 81; Aggarwal et al. 90]
    * 2.5D:  Ω(n² / (c^(1/2) p^(1/2))) — [Solomonik & Demmel 2011]

    Strassen-like column (the paper's new results, 2 < ω₀ < 3):

    * 2D:    Ω(n² / p^(2 − ω₀/2))
    * 3D:    Ω(n² / p^((5 − ω₀)/3))
    * 2.5D:  Ω(n² / (c^(ω₀/2 − 1) p^(2 − ω₀/2)))

    all attained (up to O(log p)) by the CAPS parallel Strassen
    [Ballard et al. 2011].  Note the §6.1 observation the tests verify:
    the *numerators* are ω₀-free — improving ω₀ only deepens the
    denominator's power of p.
    """
    regimes = memory_regimes(n, p, c)
    if regime not in regimes:
        raise ValueError(f"regime must be one of {sorted(regimes)}")
    if algorithm_class == "classical":
        w = 3.0
        attained = {"2D": "Cannon 1969", "3D": "Dekel et al. 1981 / Aggarwal et al. 1990",
                    "2.5D": "Solomonik & Demmel 2011"}[regime]
    elif algorithm_class == "strassen-like":
        w = omega0
        attained = "Ballard, Demmel, Holtz, Rom, Schwartz 2011 (CAPS)"
    else:
        raise ValueError("algorithm_class must be 'classical' or 'strassen-like'")
    M = regimes[regime]
    bound = parallel_io_bound(n, M, p, w)
    # p-exponent: bound = n^2 * c^(1-w/2) / p^e with e from the substitution.
    if regime == "2D":
        e = 2.0 - w / 2.0
    elif regime == "3D":
        e = (5.0 - w) / 3.0
    else:  # 2.5D
        e = 2.0 - w / 2.0  # the c-dependence carries the rest
    return Table1Cell(
        regime=regime,
        algorithm_class=algorithm_class,
        memory=M,
        bound=bound,
        exponent_of_p=e,
        attained_by=attained,
    )


def table1_rows(n: float, p: int, c: float = 1.0, omega0: float = LG7) -> list[Table1Cell]:
    """All six cells of Table I for given (n, p, c)."""
    cells = []
    for regime in ("2D", "3D", "2.5D"):
        for cls in ("classical", "strassen-like"):
            cells.append(table1_cell(regime, cls, n, p, c, omega0))
    return cells


def _check(n: float, M: float, omega0: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (2.0 <= omega0 <= 3.0):
        raise ValueError("omega0 must lie in [2, 3]")
