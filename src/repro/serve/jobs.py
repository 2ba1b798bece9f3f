"""Job model for the serving layer: parse, key, and execute one request.

A :class:`Job` is the canonical form of one analysis request — a kind
(``expansion`` / ``bounds`` / ``sweep`` / ``scaling`` / ``plan``) plus a sorted,
hashable parameter tuple.  Canonicalizing *before* keying is what makes
single-flight deduplication work: two clients asking for
``?k=4&scheme=strassen`` and ``?scheme=strassen&k=4`` produce the same
:meth:`Job.key`, so the second request rides the first one's build.

Execution comes in two shapes: :func:`run_job_inline` runs in the serving
process (thread executor) against the shared cache, and
:func:`run_job_pooled` ships the same call to the shared persistent worker
pool through :func:`repro.engine.pool.cached_task`, where it runs against
a per-worker cache over the same disk root and returns the body together
with the worker's cache-counter delta so the parent can
:meth:`~repro.engine.cache.EngineCache.merge_stats`.

Both return the job's strict-JSON response body as ``bytes``: the payload
dict is encoded once, when it is built, and the memory tier keeps the
encoded body, so a hot key is answered without re-encoding anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.bounds import LG7
from repro.engine import pool as pool_runtime
from repro.core.expansion import validate_policy
from repro.engine.builders import cached_estimate
from repro.engine.cache import EngineCache, cache_key
from repro.serve.http import json_body

__all__ = [
    "JOB_KINDS",
    "Job",
    "build_payload",
    "expansion_payload",
    "parse_job",
    "run_job_inline",
    "run_job_pooled",
]

JOB_KINDS = ("expansion", "bounds", "sweep", "scaling", "plan")

#: Guardrails on the expensive dimensions; a service must bound the work
#: one query can demand (the CLI, run by the operator, has no such caps).
MAX_K = 7
MAX_SWEEP_POINTS = 256
MAX_SCALING_P = 256
MAX_PLAN_P = 256
MAX_PLAN_N = 65536


@dataclass(frozen=True)
class Job:
    """One canonical request: ``kind`` plus sorted (name, value) params."""

    kind: str
    params: tuple[tuple[str, Any], ...]

    def key(self) -> str:
        """Content-addressed payload key (namespaced apart from artifacts).

        The whole params tuple goes in as one ``params=`` kwarg: job params
        legitimately include names like ``scheme`` that collide with
        :func:`cache_key`'s own positional parameters, and the tuple form
        keeps the (name, value) ordering the parsers canonicalized.
        """
        return cache_key(f"serve:{self.kind}", None, params=self.params)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)


def _make_job(kind: str, params: dict[str, Any]) -> Job:
    return Job(kind=kind, params=tuple(sorted(params.items())))


def _as_int(raw: dict[str, str], name: str, default: int, lo: int, hi: int) -> int:
    try:
        value = int(raw.get(name, default))
    except ValueError:
        raise ValueError(f"parameter {name!r} must be an integer") from None
    if not lo <= value <= hi:
        raise ValueError(f"parameter {name!r} must lie in [{lo}, {hi}]")
    return value


def _as_float(raw: dict[str, str], name: str, default: float, lo: float, hi: float) -> float:
    try:
        value = float(raw.get(name, default))
    except ValueError:
        raise ValueError(f"parameter {name!r} must be a number") from None
    if not lo <= value <= hi:
        raise ValueError(f"parameter {name!r} must lie in [{lo}, {hi}]")
    return value


def _as_names(raw: dict[str, str], name: str, default: str) -> tuple[str, ...]:
    """A comma-separated name list; empty entries rejected."""
    items = tuple(s.strip() for s in raw.get(name, default).split(","))
    if not items or any(not s for s in items):
        raise ValueError(f"parameter {name!r} must be a comma-separated name list")
    return items


def _as_ints(raw: dict[str, str], name: str, default: str) -> tuple[int, ...]:
    """A comma-separated integer list (range checks belong to the consumer)."""
    try:
        return tuple(int(s) for s in _as_names(raw, name, default))
    except ValueError:
        raise ValueError(f"parameter {name!r} must be comma-separated integers") from None


def _parse_expansion(raw: dict[str, str]) -> dict[str, Any]:
    policy = raw.get("policy", "auto")
    validate_policy(policy)
    return {
        "scheme": raw.get("scheme", "strassen"),
        "k": _as_int(raw, "k", 4, 1, MAX_K),
        "policy": policy,
    }


def _parse_bounds(raw: dict[str, str]) -> dict[str, Any]:
    return {
        "n": _as_float(raw, "n", 4096.0, 1.0, 1e12),
        "M": _as_float(raw, "M", 4096.0, 3.0, 1e12),
        "p": _as_int(raw, "p", 1, 1, 1_000_000),
        "omega0": _as_float(raw, "omega0", LG7, 2.0, 3.0),
    }


def _parse_sweep(raw: dict[str, str]) -> dict[str, Any]:
    memories = _as_ints(raw, "memories", "48,192")
    params = {
        "schemes": _as_names(raw, "schemes", "strassen"),
        "k_min": _as_int(raw, "k_min", 1, 1, MAX_K),
        "k_max": _as_int(raw, "k_max", 3, 1, MAX_K),
        "memories": memories,
        "policies": _as_names(raw, "policies", "auto"),
    }
    if params["k_min"] > params["k_max"]:
        raise ValueError("k_min must not exceed k_max")
    for policy in params["policies"]:
        validate_policy(policy)
    n_points = (
        len(params["schemes"])
        * (params["k_max"] - params["k_min"] + 1)
        * len(memories)
        * len(params["policies"])
    )
    if n_points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {n_points} points exceeds the cap of {MAX_SWEEP_POINTS}")
    return params


def _parse_scaling(raw: dict[str, str]) -> dict[str, Any]:
    return {
        "algos": _as_names(raw, "algos", "all"),
        "n": _as_int(raw, "n", 28, 4, 512),
        "p_max": _as_int(raw, "p_max", 16, 1, MAX_SCALING_P),
        "cs": _as_ints(raw, "cs", "1,2"),
        "scheme": raw.get("scheme", "strassen"),
    }


def _parse_plan(raw: dict[str, str]) -> dict[str, Any]:
    from repro.topology.model import parse_spec

    topology = raw.get("topology", "uniform")
    # Reject malformed specs at the 400 boundary.  Only the grammar is
    # checked: building a large topology here would stall the event loop.
    parse_spec(topology)
    return {
        "n": _as_int(raw, "n", 4096, 4, MAX_PLAN_N),
        "topology": topology,
        "scheme": raw.get("scheme", "strassen"),
        # 0 means "no limit" / "topology capacity" — query strings have no null
        "memory_limit": _as_int(raw, "memory_limit", 0, 0, 10**12),
        "p_max": _as_int(raw, "p_max", 0, 0, MAX_PLAN_P),
        "cs": _as_ints(raw, "cs", "1,2,4"),
    }


_PARSERS = {
    "expansion": _parse_expansion,
    "bounds": _parse_bounds,
    "sweep": _parse_sweep,
    "scaling": _parse_scaling,
    "plan": _parse_plan,
}


def parse_job(kind: str, raw: dict[str, str]) -> Job:
    """Validate one request's query parameters into a canonical Job.

    Raises ``ValueError`` (mapped to a 400 by the service) on unknown
    kinds, unknown parameters, bad types, or over-cap work sizes.
    """
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ValueError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
    params = parser(raw)
    unknown = sorted(set(raw) - set(params))
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} for {kind!r}")
    return _make_job(kind, params)


# ---------------------------------------------------------------------- #
# payload builders                                                       #
# ---------------------------------------------------------------------- #


def expansion_payload(
    params: dict[str, Any], cache: EngineCache, jobs: int = 1
) -> dict[str, Any]:
    """The ``/expansion`` answer, also printed by ``repro expansion``.

    ``params`` holds ``scheme``, ``k`` and ``policy``; ``jobs`` is the exact
    scan's width (the CLI passes ``--jobs``, the service uses 1).
    """
    est = cached_estimate(
        params["scheme"], params["k"], policy=params["policy"], cache=cache, jobs=jobs
    )
    return {
        "scheme": params["scheme"],
        "k": params["k"],
        "policy": params["policy"],
        "lower": est.lower,
        "upper": est.upper,
        "witness_size": est.witness_size,
        "witness_boundary": est.witness_boundary,
        "degree": est.degree,
        "method": est.method,
        # Certified interval: both endpoints finite (cone-only rows get the
        # trivial 0 lower where "lower" above serializes to null).
        "interval": est.interval().as_dict(),
    }


def _bounds_payload(params: dict[str, Any], cache: EngineCache) -> dict[str, Any]:
    from repro.core.bounds import (
        memory_independent_bound,
        parallel_io_bound,
        scaling_regime,
        sequential_io_bound,
    )

    del cache  # closed-form Section 1 bounds; nothing to build or store
    n, M, p = params["n"], params["M"], params["p"]
    omega0 = params["omega0"]
    regime = scaling_regime(n, p, M, omega0=omega0)
    return {
        "n": n,
        "M": M,
        "p": p,
        "omega0": omega0,
        "sequential_io_bound": sequential_io_bound(n, M, omega0=omega0),
        "parallel_io_bound": parallel_io_bound(n, M, p, omega0=omega0),
        "memory_independent_bound": memory_independent_bound(n, p, omega0=omega0),
        "binding": regime.binding,
        "perfect_scaling_limit": regime.p_limit,
    }


def _sweep_payload(params: dict[str, Any], cache: EngineCache) -> dict[str, Any]:
    from repro.engine.grid import GridSpec, run_grid

    spec = GridSpec.from_ranges(
        schemes=params["schemes"],
        k_min=params["k_min"],
        k_max=params["k_max"],
        memories=params["memories"],
        policies=params["policies"],
    )
    report = run_grid(spec, workers=1, cache=cache)
    return {
        "spec": {
            "schemes": list(spec.schemes),
            "ks": list(spec.ks),
            "memories": list(spec.memories),
            "policies": list(spec.policies),
        },
        "points": len(report.rows),
        "rows": report.rows,
        "stats": report.stats,
    }


def _scaling_payload(params: dict[str, Any], cache: EngineCache) -> dict[str, Any]:
    from repro.engine.scaling import ScalingSpec, scaling_sweep
    from repro.parallel.base import available_parallel

    algos = params["algos"]
    if algos == ("all",):
        algos = tuple(available_parallel())
    spec = ScalingSpec(
        algos=algos,
        n=params["n"],
        p_max=params["p_max"],
        cs=params["cs"],
        scheme=params["scheme"],
    )
    report = scaling_sweep(spec, cache=cache)
    return {
        "algos": list(algos),
        "n": params["n"],
        "points": len(report.rows),
        "rows": report.rows,
        "stats": report.stats,
    }


def _plan_payload(params: dict[str, Any], cache: EngineCache) -> dict[str, Any]:
    from repro.engine.planner import plan
    from repro.topology import Topology

    topology = Topology.parse(params["topology"])
    ranked = plan(
        params["n"],
        scheme=params["scheme"],
        topology=topology,
        memory_limit=params["memory_limit"] or None,
        p_max=params["p_max"] or None,
        cs=params["cs"],
        cache=cache,
    )
    return {
        "n": params["n"],
        "scheme": params["scheme"],
        "topology": topology.describe(),
        "memory_limit": params["memory_limit"] or None,
        "plans": [pl.as_dict() for pl in ranked],
    }


_BUILDERS = {
    "expansion": expansion_payload,
    "bounds": _bounds_payload,
    "sweep": _sweep_payload,
    "scaling": _scaling_payload,
    "plan": _plan_payload,
}


def build_payload(job: Job, cache: EngineCache) -> dict[str, Any]:
    """Compute one job's response payload against ``cache`` (no dedup)."""
    return _BUILDERS[job.kind](job.as_dict(), cache)


def run_job_inline(job: Job, cache: EngineCache) -> bytes:
    """Thread-executor path: single-flight build of the encoded response body.

    The memory tier holds the body bytes, so every later hit on the key
    returns them as they are.
    """
    return cache.memoize(job.key(), lambda: json_body(build_payload(job, cache)))


def run_job_pooled(job: Job, root: str | None) -> tuple[bytes, dict[str, int]]:
    """Ship one job to the shared persistent pool (``workers > 0`` mode).

    The worker runs :func:`run_job_inline` against its own cache over
    ``root`` and returns ``(body, cache-counter delta)``.  Blocking —
    the service calls it from executor threads, each of which checks out
    its own pool worker, so distinct jobs overlap across processes.  Under
    ``REPRO_POOL=0`` or serial fallback the job runs inline with identical
    semantics (the body/delta contract holds).
    """
    return pool_runtime.submit_one(pool_runtime.cached_task, (run_job_inline, job, root))
