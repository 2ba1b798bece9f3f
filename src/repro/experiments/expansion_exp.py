"""E3 — the Main Lemma experiment: ``h(Dec_k C) = Θ((c₀/t₀)^k)`` (Lemma 4.3).

For each depth k we sandwich the edge expansion between the certified
spectral lower bound and the best constructive cut (Fiedler sweep / decode
cone), and check both sides decay geometrically with ratio ≈ c₀/m₀.

Graphs, spectra, and estimates all flow through the engine cache, so repeat
runs (and the other experiments analyzing the same ``Dec_k C``) skip the
builds and eigensolves entirely.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cdag.schemes import get_scheme
from repro.core.exact import effective_exact_limit
from repro.core.expansion import decode_cone_mask, expansion_of_cut
from repro.engine.builders import cached_dec_graph, cached_estimate
from repro.engine.cache import EngineCache, cache_key, default_cache
from repro.util.numutil import fit_power_law

__all__ = ["expansion_decay", "small_set_profile"]


def expansion_decay(
    scheme: str = "strassen",
    k_max: int = 5,
    spectral_upto: int = 5,
    cache: EngineCache | None = None,
    jobs: int = 1,
) -> dict:
    """Two-sided h(Dec_k C) estimates for k = 1..k_max plus decay fits.

    Rows whose graph fits under :func:`effective_exact_limit` (read per
    call, so ``REPRO_EXACT_LIMIT`` set after import applies) are solved
    exactly — with the v2 engine that reaches past ``Dec_1``: e.g.
    ``Dec_2`` of the ⟨1,2,2⟩-type rectangular schemes gets an exact row
    where it previously leaned on the spectral/cone sandwich alone.
    ``spectral_upto`` caps the eigen-solves (they dominate cold run time);
    deeper graphs get the decode-cone upper bound only, which is the quantity
    the decay fit uses throughout.  ``cache`` overrides the process default;
    ``jobs`` shards the exact rows' subset search (results are identical for
    any value).
    """
    s = get_scheme(scheme)
    ratio = s.c_blocks / s.t0
    rows = []
    ks, uppers = [], []
    exact_limit = effective_exact_limit()
    for k in range(1, k_max + 1):
        g = cached_dec_graph(s, k, cache=cache)
        if g.n_vertices <= exact_limit:
            policy = "exact"
        elif k <= spectral_upto:
            policy = "spectral"
        else:
            policy = "cone"
        est = cached_estimate(s, k, policy=policy, cache=cache, jobs=jobs)
        rows.append(
            {
                "k": k,
                "V": g.n_vertices,
                "lower": est.lower,
                "upper": est.upper,
                "(c0/t0)^k": ratio**k,
                "upper/(c0/t0)^k": est.upper / ratio**k,
                "method": est.method,
                "witness_size": est.witness_size,
            }
        )
        ks.append(k)
        uppers.append(est.upper)
    # geometric-decay fit: upper ≈ C · r^k  →  log-linear in k.  Disconnected
    # Dec graphs (some rectangular schemes) have exact h = 0, which a log-log
    # fit cannot ingest — report NaN instead of crashing the sweep.
    if len(ks) >= 2 and all(u > 0 for u in uppers):
        e, _ = fit_power_law([math.e**k for k in ks], uppers)  # slope in log-k space
        decay = math.e**e
    else:
        decay = float("nan")
    return {
        "rows": rows,
        "fitted_decay_per_level": decay,
        "expected_decay": ratio,
        "scheme": scheme,
    }


def small_set_profile(
    scheme: str = "strassen", k: int = 5, cache: EngineCache | None = None
) -> dict:
    """h_s behaviour: decode cones of increasing depth inside one Dec_k C.

    Depth-j cones are the size-Θ(t₀^j) witnesses whose expansion ≈
    (c₀/t₀)^j — the small-set structure Corollary 4.4 exploits.  The whole
    profile is a deterministic artifact of (scheme, k), so it is cached like
    the graphs and spectra it derives from.
    """
    s = get_scheme(scheme)
    ratio = s.c_blocks / s.t0
    cache = cache if cache is not None else default_cache()

    def row(depth: int, size: int, h: float) -> dict:
        return {
            "cone_depth": depth,
            "set_size": size,
            "h_of_cut": h,
            "(c0/t0)^depth": ratio**depth,
            "ratio": h / ratio**depth,
        }

    def build() -> dict:
        g = cached_dec_graph(s, k, cache=cache)
        # pick the branch whose W column is sparsest (cheapest cone boundary)
        col_nnz = (s.W != 0).sum(axis=0)
        branch = int(col_nnz.argmin())
        rows = []
        for depth in range(1, k + 1):
            mask = decode_cone_mask(s, k, branch=branch, depth=depth)
            size = int(mask.sum())
            if size > g.n_vertices // 2 or size == 0:
                continue
            rows.append(row(depth, size, expansion_of_cut(g, mask)))
        return {"rows": rows, "scheme": scheme, "k": k, "branch": branch}

    def encode(result: dict) -> dict:
        rows = result["rows"]
        return {
            "branch": np.int64(result["branch"]),
            "depths": np.array([r["cone_depth"] for r in rows], dtype=np.int64),
            "sizes": np.array([r["set_size"] for r in rows], dtype=np.int64),
            "hs": np.array([r["h_of_cut"] for r in rows], dtype=np.float64),
        }

    def decode(data: dict) -> dict:
        rows = [
            row(int(depth), int(size), float(h))
            for depth, size, h in zip(data["depths"], data["sizes"], data["hs"])
        ]
        return {"rows": rows, "scheme": scheme, "k": k, "branch": int(data["branch"])}

    return cache.memoize(
        cache_key("small_set_profile", s, k=k), build, encode=encode, decode=decode
    )
