"""Cache-backed constructors for the artifacts the experiments consume.

Each builder is one :meth:`~repro.engine.cache.EngineCache.memoize` call:
the decoded-object layer, then the disk layer, and only then a construction
from scratch (recording a *build* in the cache stats — a warm sweep reports
zero builds).  Round-trips are bit-identical: the arrays are stored exactly
as the constructors produced them.

:func:`cached_estimate` memoizes
:func:`~repro.core.expansion.estimate_expansion`, which owns the policy
ladder and the certified interval; the engine adds a single cost rule:
``auto`` above :data:`AUTO_SPECTRAL_LIMIT` vertices runs the ``cone``
policy, because the eigensolve it would otherwise start costs about a
second per graph at ``Dec_5`` scale.
"""

from __future__ import annotations

import numpy as np

from repro.cdag.graph import CDAG
from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.cdag.strassen_cdag import HGraph, dec_graph, dec_vertex_count, h_graph
from repro.core.exact import effective_exact_limit
from repro.core.expansion import (
    ExpansionEstimate,
    estimate_expansion,
    spectral_lower_bound,
    validate_policy,
)
from repro.engine.cache import EngineCache, cache_key, default_cache

__all__ = [
    "AUTO_SPECTRAL_LIMIT",
    "cached_dec_graph",
    "cached_h_graph",
    "cached_spectrum",
    "cached_estimate",
]

#: Under the "auto" policy, graphs larger than this skip the eigensolve and
#: fall back to the decode-cone upper bound (a Dec_5 eigensolve still takes
#: about 1 s; the cone witness is the quantity the decay fits use anyway).
AUTO_SPECTRAL_LIMIT = 10_000


def _resolve(scheme: BilinearScheme | str) -> BilinearScheme:
    return get_scheme(scheme) if isinstance(scheme, str) else scheme


def _encode_cdag(g: CDAG) -> dict[str, np.ndarray]:
    return {
        "n_vertices": np.int64(g.n_vertices),
        "src": g.src,
        "dst": g.dst,
        "kinds": g.kinds,
        "levels": g.levels,
    }


def _decode_cdag(data: dict[str, np.ndarray]) -> CDAG:
    return CDAG(
        n_vertices=int(data["n_vertices"]),
        src=data["src"],
        dst=data["dst"],
        kinds=data["kinds"],
        levels=data["levels"],
    )


#: The named vertex regions an :class:`HGraph` stores beside its CDAG.
_H_REGIONS = ("a_inputs", "b_inputs", "mult_ids", "output_ids", "dec_ids")


def cached_dec_graph(
    scheme: BilinearScheme | str,
    k: int,
    expand_trees: bool = False,
    cache: EngineCache | None = None,
) -> CDAG:
    """``Dec_k C`` through the cache (drop-in for :func:`dec_graph`)."""
    scheme = _resolve(scheme)
    cache = cache if cache is not None else default_cache()
    key = cache_key("dec", scheme, k=k, expand_trees=expand_trees)
    return cache.memoize(
        key,
        lambda: dec_graph(scheme, k, expand_trees=expand_trees),
        encode=_encode_cdag,
        decode=_decode_cdag,
    )


def cached_h_graph(
    scheme: BilinearScheme | str,
    k: int,
    cache: EngineCache | None = None,
) -> HGraph:
    """``H_k`` (with its named vertex regions) through the cache."""
    scheme = _resolve(scheme)
    cache = cache if cache is not None else default_cache()
    key = cache_key("h", scheme, k=k)
    return cache.memoize(
        key,
        lambda: h_graph(scheme, k),
        encode=lambda hg: {
            **_encode_cdag(hg.cdag),
            **{name: getattr(hg, name) for name in _H_REGIONS},
        },
        decode=lambda data: HGraph(
            cdag=_decode_cdag(data),
            **{name: data[name] for name in _H_REGIONS},
            k=k,
            scheme_name=scheme.name,
        ),
    )


def cached_spectrum(
    scheme: BilinearScheme | str,
    k: int,
    cache: EngineCache | None = None,
) -> tuple[float, np.ndarray]:
    """Cheeger lower bound and Fiedler vector of ``Dec_k C``, cached.

    The eigensolve is the single most expensive analysis kernel (shift-invert
    on a Θ(m₀^k)-vertex Laplacian), so its result is cached independently of
    the estimate that consumes it.
    """
    scheme = _resolve(scheme)
    cache = cache if cache is not None else default_cache()
    key = cache_key("spectrum", scheme, k=k)
    return cache.memoize(
        key,
        lambda: spectral_lower_bound(cached_dec_graph(scheme, k, cache=cache)),
        encode=lambda r: {"lower": np.float64(r[0]), "fiedler": r[1]},
        decode=lambda data: (float(data["lower"]), data["fiedler"]),
    )


def _encode_estimate(est: ExpansionEstimate) -> dict[str, np.ndarray]:
    iv = est.interval()
    return {
        "lower": np.float64(est.lower),
        "upper": np.float64(est.upper),
        "witness_size": np.int64(est.witness_size),
        "witness_boundary": np.int64(est.witness_boundary),
        "degree": np.int64(est.degree),
        "method": np.asarray(est.method),
        # The certified interval (v6 schema): lower differs from the raw
        # estimate only for cone-only rows (NaN → trivial 0), and the
        # provenance tag names the proof path, so cache readers get the
        # certificate without re-deriving it.
        "interval_lower": np.float64(iv.lower),
        "provenance": np.asarray(iv.provenance),
    }


def _decode_estimate(data: dict[str, np.ndarray]) -> ExpansionEstimate:
    return ExpansionEstimate(
        lower=float(data["lower"]),
        upper=float(data["upper"]),
        witness_size=int(data["witness_size"]),
        witness_boundary=int(data["witness_boundary"]),
        degree=int(data["degree"]),
        method=str(data["method"]),
    )


def cached_estimate(
    scheme: BilinearScheme | str,
    k: int,
    policy: str = "auto",
    cache: EngineCache | None = None,
    jobs: int = 1,
) -> ExpansionEstimate:
    """:func:`~repro.core.expansion.estimate_expansion` of ``Dec_k C``, memoized.

    Keyed by (scheme, k, policy), plus the enumeration ceiling for ``auto``;
    ``auto`` above :data:`AUTO_SPECTRAL_LIMIT` vertices runs ``cone`` (the
    engine's one cost rule).  The graph and the eigensolve come from
    :func:`cached_dec_graph` and :func:`cached_spectrum`.  ``jobs`` never
    changes the result, so it is not part of the key.  The stored artifact
    also carries the certified interval's lower bound and provenance.
    """
    validate_policy(policy)
    scheme = _resolve(scheme)
    cache = cache if cache is not None else default_cache()
    if policy == "auto":
        # The auto policy's method choice depends on the enumeration ceiling
        # in force (REPRO_EXACT_LIMIT), so the ceiling is part of what the
        # artifact *is* — omit it and changing the env var returns stale
        # estimates computed under a different ceiling.  Fixed policies are
        # ceiling-independent and keep the shorter key.
        key = cache_key(
            "estimate", scheme, k=k, policy=policy, exact_limit=effective_exact_limit()
        )
    else:
        key = cache_key("estimate", scheme, k=k, policy=policy)
    if policy == "auto" and dec_vertex_count(scheme, k) > AUTO_SPECTRAL_LIMIT:
        policy = "cone"  # the engine's one cost rule (see AUTO_SPECTRAL_LIMIT)
    return cache.memoize(
        key,
        lambda: estimate_expansion(
            cached_dec_graph(scheme, k, cache=cache),
            scheme,
            k,
            policy=policy,
            jobs=jobs,
            spectrum=lambda: cached_spectrum(scheme, k, cache=cache),
        ),
        encode=_encode_estimate,
        decode=_decode_estimate,
    )
