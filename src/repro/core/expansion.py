"""Edge-expansion estimation (§2, §3.3, §4.1.2 — the paper's core quantity).

For a ``d``-regular graph the edge expansion is

    h(G) = min_{|U| ≤ |V|/2}  |E(U, V\\U)| / (d · |U|)        (Eq. 4)

CDAGs are not regular; the paper regularizes by adding loops up to the max
degree ``d`` (§2.0.2) — loops never cross a cut, so in practice we divide by
``d = max_degree`` and never materialize loops.

Exact ``h`` is NP-hard, so the module offers a *sandwich*:

* **exact enumeration** for small graphs (≤ :func:`effective_exact_limit`
  vertices, 32 by default) — ground truth for the test suite and for the
  ``Dec_k C`` base cases (``Dec₁C`` of every scheme, and ``Dec₂C`` of the
  ⟨1,2,2⟩-type rectangular schemes).  The enumeration itself lives in
  :mod:`repro.core.exact`, whose one entry point
  :func:`~repro.core.exact.exact_edge_expansion_v2` gives ``h`` and, with
  ``max_size=s``, ``h_s``;
* **spectral (Cheeger) bounds** — ``λ₂/2 ≤ h(G) ≤ √(2 λ₂)`` for the
  loop-regularized graph, computed with sparse eigensolvers: a certified
  lower bound on one side;
* **constructive cuts** — every cut gives a certified *upper* bound:
  Fiedler sweep cuts, and the structural witness for Lemma 4.3's tightness:
  the *decode cone* of one outermost recursion branch of ``Dec_k C``
  (``S`` = everything decoded exclusively from products whose outermost
  digit is ``r``), whose boundary is the ``c₀^(k−1)`` partial results it
  hands to the final combine — giving ``h ≤ O((c₀/m₀)^k)``;
* **small-set expansion** ``h_s`` (Eq. 5) with the decomposition lower
  bound of Claim 2.1.

:func:`estimate_expansion` is the one place that picks a side of the
sandwich.  Its :data:`POLICIES` ladder is ``exact`` (enumeration),
``spectral`` (Cheeger lower bound, best of Fiedler sweep and decode cone
above), ``cone`` (decode-cone witness only, no lower bound) and ``auto``
(exact up to :func:`effective_exact_limit` vertices, spectral beyond).
Every :class:`ExpansionEstimate` it returns derives its certified
:class:`~repro.core.certify.ExpansionInterval` through
:meth:`ExpansionEstimate.interval`.  The engine's ``cached_estimate`` only
memoizes this function (plus one cost rule, see
:mod:`repro.engine.builders`).

Together the experiments verify ``h(Dec_k C) = Θ((4/7)^k)`` (Lemma 4.3).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cdag.graph import CDAG
from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.cdag.strassen_cdag import dec_level_sizes
from repro.core.certify import METHOD_PROVENANCE, ExpansionInterval
from repro.core.exact import effective_exact_limit, exact_edge_expansion_v2

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "POLICIES",
    "validate_policy",
    "ExpansionEstimate",
    "expansion_of_cut",
    "spectral_lower_bound",
    "fiedler_sweep_cut",
    "decode_cone_mask",
    "decode_cone_upper_bound",
    "estimate_expansion",
    "claim_2_1_small_set_bound",
]

@dataclass(frozen=True)
class ExpansionEstimate:
    """A two-sided estimate of h(G) with the witness cut for the upper side."""

    lower: float               # certified lower bound (spectral or exact); NaN = none
    upper: float               # certified upper bound (a concrete cut)
    witness_size: int          # |U| of the best cut found
    witness_boundary: int      # |E(U, V\U)| of that cut
    degree: int                # the regularized degree d used
    method: str

    def interval(self) -> ExpansionInterval:
        """The certified :class:`~repro.core.certify.ExpansionInterval`.

        Exact and spectral estimates carry their own certified lower bound;
        cone-only estimates report ``NaN`` (no eigensolve ran), which
        certifies the trivial ``0 <= h(G)``.  A witness cut with zero
        boundary proves ``h(G) = 0``, so ``upper == 0`` certifies ``[0, 0]``
        whatever floating-point residue the Cheeger lower bound carries.
        """
        provenance = METHOD_PROVENANCE.get(self.method)
        if provenance is None:
            raise ValueError(
                f"unknown estimate method {self.method!r}; "
                f"expected one of {sorted(METHOD_PROVENANCE)}"
            )
        lower = 0.0 if math.isnan(self.lower) or self.upper == 0.0 else self.lower
        return ExpansionInterval(lower=lower, upper=self.upper, provenance=provenance)


# ---------------------------------------------------------------------- #
# cut evaluation                                                          #
# ---------------------------------------------------------------------- #


def expansion_of_cut(g: CDAG, mask: np.ndarray, degree: int | None = None) -> float:
    """The ratio ``|E(U, V\\U)| / (d · |U|)`` for ``U = mask``.

    Raises if ``U`` is empty or larger than ``|V|/2`` (Eq. 4's constraint).
    """
    mask = np.asarray(mask, dtype=bool)
    size = int(mask.sum())
    if size == 0:
        raise ValueError("cut set must be nonempty")
    if size > g.n_vertices // 2:
        raise ValueError("cut set exceeds |V|/2; expansion is defined on the smaller side")
    d = degree if degree is not None else g.max_degree
    return g.edge_boundary_size(mask) / (d * size)


# ---------------------------------------------------------------------- #
# spectral machinery                                                      #
# ---------------------------------------------------------------------- #


def _regularized_laplacian(g: CDAG) -> tuple[sp.csr_matrix, int]:
    """Normalized Laplacian of the loop-regularized d-regular graph.

    ``L = I − (A + (d − deg)·I)/d``; loops appear only on the diagonal and
    leave every cut untouched, exactly the paper's §2.0.2 convention.
    """
    import scipy.sparse as sp

    d = g.max_degree
    A = g.adjacency
    deg = g.degree.astype(np.float64)
    n = g.n_vertices
    diag = (d - deg) / d
    L = sp.identity(n, format="csr") - (A / d + sp.diags(diag))
    return L.tocsr(), d


# Above this many vertices the shift-invert factorization keeps the CDAG's
# own level-major vertex order instead of COLAMD's: on Dec_5 (37,851
# vertices) it leaves 17-40% of COLAMD's fill and factors 4-18x faster.
# Below it COLAMD stays, because the sweep cut ranks tied Fiedler
# entries (630 of 715 on strassen Dec_3) by last-ulp rounding, so changing
# the ordering there would move committed sweep bounds and spectra.
NATURAL_ORDER_MIN_VERTICES = 1 << 14


def _two_smallest_eigs(L: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The two algebraically smallest eigenpairs of a PSD sparse matrix.

    A size ladder:

    * up to 600 vertices, dense ``eigh``;
    * then shift-invert Lanczos around a small negative sigma, which
      converges fast even when the spectral gap is tiny (it is
      ~(4/7)^{2k} for deep decode graphs).  ``L − σI`` is factored once
      with ``splu`` in COLAMD order, exactly what ``eigsh(sigma=...)``
      does internally, so results are bit-identical to it;
    * above :data:`NATURAL_ORDER_MIN_VERTICES` the factorization keeps
      the CDAG's level order (``permc_spec="NATURAL"``), which fills far
      less than COLAMD on decode graphs.

    Falls back to plain 'SA' Lanczos if the factorization or the
    shift-invert iteration fails.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = L.shape[0]
    if n <= 600:
        w, V = np.linalg.eigh(L.toarray())
        return w[:2], V[:, :2]
    # Deterministic start vector: repeat runs (and the engine's parallel
    # workers) must produce identical spectra for cache hits to be exact.
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    sigma = -1e-8
    permc_spec = "NATURAL" if n > NATURAL_ORDER_MIN_VERTICES else "COLAMD"
    try:
        # L is real symmetric CSR, so its transpose is the same matrix in
        # the CSC layout splu wants, with no conversion pass.
        lu = spla.splu((L - sigma * sp.eye(n)).T, permc_spec=permc_spec)
        OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=L.dtype)
        w, V = spla.eigsh(L, k=2, sigma=sigma, which="LM", maxiter=5000, v0=v0, OPinv=OPinv)
    except (spla.ArpackNoConvergence, np.linalg.LinAlgError, RuntimeError):
        # Shift-invert legitimately fails when the factorization is singular
        # or Lanczos stalls; anything else (bad shapes, dtypes) is a real
        # bug in the caller and must propagate.
        w, V = spla.eigsh(L, k=2, which="SA", maxiter=20000, tol=1e-10, v0=v0)
    order = np.argsort(w)
    return w[order], V[:, order]


def spectral_lower_bound(g: CDAG) -> tuple[float, np.ndarray]:
    """Cheeger lower bound ``h(G) ≥ λ₂/2`` plus the Fiedler vector.

    Returns ``(λ₂ / 2, fiedler_vector)`` for the regularized graph.
    """
    L, _ = _regularized_laplacian(g)
    w, V = _two_smallest_eigs(L)
    lam2 = max(float(w[1]), 0.0)
    return lam2 / 2.0, V[:, 1]


def fiedler_sweep_cut(g: CDAG, fiedler: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Best prefix cut of the Fiedler ordering — a certified upper bound.

    Sorts vertices by the second eigenvector and evaluates *every* prefix
    ``U_i = first i vertices`` in O(V + E) total using a difference array
    over edge spans (an edge crosses exactly the prefixes between the ranks
    of its endpoints).
    """
    if fiedler is None:
        _, fiedler = spectral_lower_bound(g)
    n = g.n_vertices
    d = g.max_degree
    order = np.argsort(fiedler, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    u, v = g.undirected_edges
    lo = np.minimum(rank[u], rank[v])
    hi = np.maximum(rank[u], rank[v])
    # cut(i) = number of edges with lo <= i < hi, for prefix of size i+1.
    # bincount beats np.add.at's unbuffered scatter by ~an order of magnitude
    # and this difference array is rebuilt on every spectral estimate.
    diff = np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    cut_sizes = np.cumsum(diff[:-1])
    prefix_sizes = np.arange(1, n + 1)
    valid = prefix_sizes <= n // 2
    ratios = np.where(valid, cut_sizes / (d * prefix_sizes), np.inf)
    best = int(np.argmin(ratios))
    mask = np.zeros(n, dtype=bool)
    mask[order[: best + 1]] = True
    return float(ratios[best]), mask


# ---------------------------------------------------------------------- #
# structural witness cuts for Dec_k C                                     #
# ---------------------------------------------------------------------- #


def decode_cone_mask(
    scheme: BilinearScheme | str, k: int, branch: int = 0, depth: int | None = None
) -> np.ndarray:
    """The decode cone of one outermost recursion branch of ``Dec_k C``.

    ``S`` = all vertices whose pending product prefix starts with outermost
    digit ``branch`` — i.e. everything computed *exclusively* from the
    products of subproblem ``M_branch`` of the top-level recursion, before
    the final combine.  Its out-boundary is only the
    ``(nnz of W column branch) · c₀^(k−1)`` edges that feed the top-level
    combine — the witness that Lemma 4.3 is tight:
    ``h(Dec_k C) = O((c₀/t₀)^k)``.  Branches index the scheme's ``t₀``
    products (7 for Strassen), and ``c₀ = m₀·p₀`` counts the output blocks,
    so rectangular schemes get their cones from the same arithmetic.

    ``depth`` (default ``k``) restricts the cone to its first ``depth``
    levels, producing the smaller witnesses used for ``h_s`` studies.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    c0 = scheme.c_blocks
    t0 = scheme.t0
    if not (0 <= branch < t0):
        raise ValueError(f"branch must be in [0, {t0})")
    if depth is None:
        depth = k
    if not (1 <= depth <= k):
        raise ValueError("depth must be in [1, k]")
    sizes = dec_level_sizes(scheme, k)
    off = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    mask = np.zeros(int(sizes.sum()), dtype=bool)
    # Level t vertices: id = off[t] + rho * c0^t + s, rho in [t0^(k-t)].
    # The outermost product digit is the most significant digit of rho, so
    # the cone at level t is rho in [branch * t0^(k-t-1), (branch+1) * ...).
    for t in range(0, depth):
        n_suffix = c0**t
        stride = t0 ** (k - t - 1)
        lo = off[t] + branch * stride * n_suffix
        hi = off[t] + (branch + 1) * stride * n_suffix
        mask[lo:hi] = True
    return mask


def decode_cone_upper_bound(
    g: CDAG, scheme: BilinearScheme | str, k: int
) -> tuple[float, np.ndarray]:
    """Best decode-cone cut over all outermost branches — upper bound on h.

    The best branch is one whose W column has the fewest nonzeros (its
    products feed the fewest outputs of the top-level combine).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    best_ratio = math.inf
    best_mask: np.ndarray | None = None
    half = g.n_vertices // 2
    n_empty = 0
    n_oversized = 0
    for branch in range(scheme.t0):
        mask = decode_cone_mask(scheme, k, branch)
        size = int(mask.sum())
        if size == 0:
            n_empty += 1
            continue
        if size > half:
            n_oversized += 1
            continue
        ratio = expansion_of_cut(g, mask)
        if ratio < best_ratio:
            best_ratio = ratio
            best_mask = mask
    if best_mask is None:
        reasons = []
        if n_oversized:
            reasons.append(
                f"{n_oversized} cone(s) exceed |V|/2 = {half} "
                "(Eq. 4 needs the smaller side; the graph is too shallow "
                "for this scheme's branch cones)"
            )
        if n_empty:
            reasons.append(f"{n_empty} cone(s) are empty")
        raise ValueError(
            f"no feasible decode cone among {scheme.t0} branches of "
            f"{scheme.name!r} at k={k}: " + "; ".join(reasons)
        )
    return best_ratio, best_mask


# ---------------------------------------------------------------------- #
# the combined estimator                                                  #
# ---------------------------------------------------------------------- #


#: The estimator's policy ladder (see :func:`estimate_expansion`).
POLICIES = ("auto", "exact", "spectral", "cone")


def validate_policy(policy: str) -> None:
    """Raise ``ValueError`` unless ``policy`` is one of :data:`POLICIES`."""
    if policy not in POLICIES:
        raise ValueError(f"unknown estimate policy {policy!r}; choose from {POLICIES}")


def _estimate(
    g: CDAG, lower: float, upper: float, mask: np.ndarray, method: str
) -> ExpansionEstimate:
    return ExpansionEstimate(
        lower=lower,
        upper=upper,
        witness_size=int(mask.sum()),
        witness_boundary=g.edge_boundary_size(mask),
        degree=g.max_degree,
        method=method,
    )


def estimate_expansion(
    g: CDAG,
    scheme: BilinearScheme | str | None = None,
    k: int | None = None,
    *,
    policy: str = "auto",
    jobs: int = 1,
    spectrum: Callable[[], tuple[float, np.ndarray]] | None = None,
) -> ExpansionEstimate:
    """Two-sided expansion estimate under one of the :data:`POLICIES`.

    * ``exact`` — enumeration (``jobs`` shards the subset search over
      processes without changing the result); ``lower == upper``.
    * ``spectral`` — Cheeger lower bound ``λ₂/2`` and the best witness cut
      above it: the Fiedler sweep, or the decode cone when
      ``scheme``/``k`` describe ``g`` as a ``Dec_k C`` and the cone is
      feasible and smaller.
    * ``cone`` — the decode-cone witness alone (needs ``scheme``/``k``;
      ``NaN`` lower, raises when no cone is feasible).
    * ``auto`` — ``exact`` up to :func:`effective_exact_limit` vertices,
      ``spectral`` beyond.

    ``spectrum`` is a zero-argument callable returning
    ``spectral_lower_bound(g)``; callers that memoize the eigensolve (the
    engine) pass it in, everyone else leaves it ``None``.
    """
    validate_policy(policy)
    if policy == "auto":
        policy = "exact" if g.n_vertices <= effective_exact_limit() else "spectral"
    if policy == "exact":
        h, mask = exact_edge_expansion_v2(g, jobs=jobs)
        return _estimate(g, h, h, mask, "exact")
    if policy == "cone":
        if scheme is None or k is None:
            raise ValueError("the cone policy needs the scheme and k of a Dec_k C graph")
        upper, mask = decode_cone_upper_bound(g, scheme, k)
        return _estimate(g, math.nan, upper, mask, "cone-only")
    lower, fiedler = spectrum() if spectrum is not None else spectral_lower_bound(g)
    upper, mask = fiedler_sweep_cut(g, fiedler)
    method = "spectral+sweep"
    if scheme is not None and k is not None:
        try:
            cone_ratio, cone_mask = decode_cone_upper_bound(g, scheme, k)
        except ValueError:  # graph too shallow for a feasible cone: keep the sweep
            cone_ratio, cone_mask = math.inf, mask
        if cone_ratio < upper:
            upper, mask, method = cone_ratio, cone_mask, "spectral+cone"
    return _estimate(g, lower, upper, mask, method)


# ---------------------------------------------------------------------- #
# small-set expansion via decomposition (Claim 2.1)                       #
# ---------------------------------------------------------------------- #


def claim_2_1_small_set_bound(
    h_small: float, d_small: int, d_big: int
) -> float:
    """Claim 2.1: if ``G`` decomposes into edge-disjoint copies of ``G'``
    (d'-regular, expansion ``h(G')``), then sets of size ≤ |V(G')|/2 in G
    expand at least ``h(G') · d'/d``.

    The deep decode graph ``Dec_{lg n} C`` decomposes into edge-disjoint
    copies of ``Dec_{k'} C`` (each spanning ``k'`` consecutive levels), so
    its small-set expansion inherits the small graph's — the step that turns
    Lemma 4.3 into Corollary 4.4.
    """
    if d_small <= 0 or d_big <= 0 or d_small > d_big:
        raise ValueError("degrees must satisfy 0 < d_small <= d_big")
    return h_small * d_small / d_big
