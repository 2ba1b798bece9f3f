"""E6/E7/E10 — Table I: parallel bandwidth, measured vs bounds.

Runs the attaining algorithms on the simulated machine and compares the
critical-path word counts against the Table I cells:

* classical column — Cannon (2D), 3D, 2.5D (+ SUMMA for the lg-factor
  contrast);
* Strassen-like column — CAPS under all-BFS (unlimited memory) and
  DFS-interleaved (memory-constrained) schedules.
"""

from __future__ import annotations

import math

from repro.core.bounds import LG7, parallel_io_bound, table1_cell
from repro.parallel.base import ParallelConfig, get_parallel
from repro.util.matgen import integer_matrix
from repro.util.numutil import fit_power_law

__all__ = [
    "classical_2d_scaling",
    "threed_scaling",
    "two5d_c_sweep",
    "caps_scaling",
    "caps_memory_sweep",
    "table1_summary",
]


def _inputs(n: int):
    return integer_matrix(n, seed=11), integer_matrix(n, seed=13)


def _execute(name, A, B, *, p, c=1, schedule=None):
    """Run one registry algorithm through the planner-first config API."""
    scheme = "strassen" if get_parallel(name).uses_scheme else None
    cfg = ParallelConfig(n=A.shape[0], p=p, c=c, scheme=scheme, schedule=schedule)
    return get_parallel(name).execute(A, B, cfg)


def classical_2d_scaling(n: int = 64, qs=(2, 4, 8, 16)) -> dict:
    """Cannon & SUMMA vs the 2D cell ``Ω(n²/√p)`` — exponent fit in p."""
    A, B = _inputs(n)
    rows, ps, ws = [], [], []
    for q in qs:
        if n % q:
            continue
        cell = table1_cell("2D", "classical", n, q * q)
        for alg in ("cannon", "summa"):
            r = _execute(alg, A, B, p=q * q)
            ok = bool((r.C == A @ B).all())
            rows.append(
                {
                    "algorithm": alg,
                    "p": q * q,
                    "measured_words": r.critical_words,
                    "bound": cell.bound,
                    "measured/bound": r.critical_words / cell.bound,
                    "mem_peak": r.max_mem_peak,
                    "verified": ok,
                }
            )
            if alg == "cannon":
                ps.append(q * q)
                ws.append(r.critical_words)
    e, _ = fit_power_law(ps, ws)
    return {"rows": rows, "cannon_p_exponent": e, "expected_p_exponent": -0.5, "n": n}


def threed_scaling(n: int = 64, qs=(2, 4)) -> dict:
    """3D algorithm vs the 3D cell ``Ω(n²/p^(2/3))``."""
    A, B = _inputs(n)
    rows, ps, ws = [], [], []
    for q in qs:
        p = q**3
        cell = table1_cell("3D", "classical", n, p)
        r = _execute("3d", A, B, p=p)
        rows.append(
            {
                "p": p,
                "measured_words": r.critical_words,
                "bound": cell.bound,
                "measured/bound": r.critical_words / cell.bound,
                "mem_peak": r.max_mem_peak,
                "verified": bool((r.C == A @ B).all()),
            }
        )
        ps.append(p)
        ws.append(r.critical_words)
    e, _ = fit_power_law(ps, ws)
    return {"rows": rows, "p_exponent": e, "expected_p_exponent": -2.0 / 3.0, "n": n}


def two5d_c_sweep(n: int = 64, q: int = 8, cs=(1, 2, 4, 8)) -> dict:
    """2.5D at fixed grid q, growing replication c (p = q²c): the Table I
    row-3 cell predicts words ∝ 1/√(c·p) = 1/(√c·q·√c) ∝ c⁻¹ at fixed q."""
    A, B = _inputs(n)
    rows, xs, ws = [], [], []
    for c in cs:
        if q % c:
            continue
        p = q * q * c
        cell = table1_cell("2.5D", "classical", n, p, c)
        r = _execute("2.5d", A, B, p=p, c=c)
        rows.append(
            {
                "c": c,
                "p": p,
                "measured_words": r.critical_words,
                "bound": cell.bound,
                "measured/bound": r.critical_words / cell.bound,
                "mem_peak": r.max_mem_peak,
                "M_regime": cell.memory,
                "verified": bool((r.C == A @ B).all()),
            }
        )
        xs.append(c * p)
        ws.append(r.critical_words)
    e, _ = fit_power_law(xs, ws)
    return {"rows": rows, "cp_exponent": e, "expected_cp_exponent": -0.5, "n": n, "q": q}


def caps_scaling(n0_factor: int = 8, ells=(1, 2)) -> dict:
    """CAPS all-BFS vs the unlimited-memory shape ``n²/p^(2/ω₀)``.

    n grows with ℓ to satisfy the layout divisibility (n = f·2^ℓ·7^⌈ℓ/2⌉),
    so the comparison normalizes by n².
    """
    rows = []
    for ell in ells:
        p = 7**ell
        n = n0_factor * (2**ell) * (7 ** math.ceil(ell / 2))
        A, B = _inputs(n)
        r = _execute("caps", A, B, p=p)
        shape = n * n / p ** (2.0 / LG7)
        rows.append(
            {
                "ell": ell,
                "p": p,
                "n": n,
                "measured_words": r.critical_words,
                "n^2/p^(2/w0)": shape,
                "measured/shape": r.critical_words / shape,
                "mem_peak": r.max_mem_peak,
                "verified": bool((r.C == A @ B).all()),
            }
        )
    return {"rows": rows}


def caps_memory_sweep(n: int = 112, ell: int = 2) -> dict:
    """E7: CAPS schedules trade memory for bandwidth along Corollary 1.2.

    All schedules with ℓ B's and up to 2 D's; for each, measured words and
    measured peak memory vs the bound ``(n/√M)^ω₀·M/p`` at M = measured
    peak — the measured points should run parallel to the bound curve.
    """
    A, B = _inputs(n)
    p = 7**ell
    schedules = ["BB", "DBB", "BDB", "BBD", "DDBB", "DBDB", "DBBD"]
    caps = get_parallel("caps")
    rows = []
    for sched in schedules:
        if not caps.is_valid(n, p, scheme="strassen", schedule=sched):
            continue
        r = _execute("caps", A, B, p=p, schedule=sched)
        M = r.max_mem_peak
        bound = parallel_io_bound(n, M, p, LG7)
        rows.append(
            {
                "schedule": sched,
                "measured_words": r.critical_words,
                "mem_peak": M,
                "bound_at_peak": bound,
                "measured/bound": r.critical_words / bound,
                "verified": bool((r.C == A @ B).all()),
            }
        )
    return {"rows": rows, "n": n, "p": p}


def table1_summary(n: int = 64) -> list[dict]:
    """All six Table I cells evaluated at one (n, p) with the attaining
    algorithm's measured words beside each bound."""
    out = []
    A, B = _inputs(n)
    # classical 2D at p=16
    r = _execute("cannon", A, B, p=16)
    cell = table1_cell("2D", "classical", n, 16)
    out.append(_cell_row(cell, r.critical_words, "cannon"))
    # classical 3D at p=64
    r = _execute("3d", A, B, p=64)
    cell = table1_cell("3D", "classical", n, 64)
    out.append(_cell_row(cell, r.critical_words, "3d"))
    # classical 2.5D at p=64 (q=4, c=4)
    r = _execute("2.5d", A, B, p=64, c=4)
    cell = table1_cell("2.5D", "classical", n, 64, 4)
    out.append(_cell_row(cell, r.critical_words, "2.5d"))
    # strassen-like cells at p=7 (n divisible appropriately)
    n7 = 56
    A7, B7 = _inputs(n7)
    r = _execute("caps", A7, B7, p=7, schedule="DDB")
    cell = table1_cell("2D", "strassen-like", n7, 7)
    out.append(_cell_row(cell, r.critical_words, "caps(DDB)"))
    r = _execute("caps", A7, B7, p=7, schedule="DB")
    cell = table1_cell("3D", "strassen-like", n7, 7)
    out.append(_cell_row(cell, r.critical_words, "caps(DB)"))
    r = _execute("caps", A7, B7, p=7, schedule="B")
    cell = table1_cell("2.5D", "strassen-like", n7, 7, 2)
    out.append(_cell_row(cell, r.critical_words, "caps(B)"))
    return out


def _cell_row(cell, measured: int, alg: str) -> dict:
    return {
        "regime": cell.regime,
        "class": cell.algorithm_class,
        "bound": cell.bound,
        "p_exponent": cell.exponent_of_p,
        "measured_words": measured,
        "algorithm": alg,
        "attained_by(paper)": cell.attained_by,
    }
