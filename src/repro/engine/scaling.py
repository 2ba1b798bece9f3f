"""Cached strong-scaling sweep: parallel-algorithm registry × p-grid × c.

The parallel counterpart of :mod:`repro.engine.grid`: for every registered
algorithm (or a chosen subset) and every valid (p, c) configuration up to a
processor budget, run the simulated algorithm, meter its critical-path
words / messages / α–β time / per-rank memory, and set the measurements
beside

* the algorithm's *declared* analytic cost formulas (registry metadata),
* the memory-dependent bound ``(n/√M)^ω₀·M/p`` at the measured memory,
* the memory-independent floor ``n²/p^(2/ω₀)`` (arXiv:1202.3177), and
* the :func:`~repro.core.bounds.scaling_regime` classification saying
  which bound binds and where the perfect-scaling range ends.

Simulated runs are deterministic, so their measured counters are cached in
the PR-1 content-addressed store (kind ``"scaling"``) keyed by the
algorithm name, problem geometry, schedule, and seeds — a warm sweep
replays from disk without simulating anything (``builds == 0``).  The
per-superstep per-rank (msgs, words) tallies are part of the cached
artifact, so the critical-path time is recomputed at read time and
sweeping machine parameters never re-simulates.

Machine parameters flow through one object: a sweep's ``(alpha, beta)``
pair is materialized as ``Topology.uniform(alpha, beta)``, which *is* the
flat α-β model, and handing ``ScalingSpec`` a heterogeneous
:class:`~repro.topology.Topology` re-costs the same cached tallies under
that machine's effective tier parameters with no new plumbing.
:meth:`~repro.topology.Topology.time_from_steps` is the only α-β time
formula.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cdag.schemes import get_scheme
from repro.core.bounds import scaling_regime
from repro.engine import pool as pool_runtime
from repro.engine.cache import EngineCache, cache_key, default_cache
from repro.parallel.base import ParallelConfig, get_parallel
from repro.topology import Topology
from repro.util.jsonutil import jsonable
from repro.util.matgen import integer_matrix

__all__ = [
    "ScalingPoint",
    "ScalingSpec",
    "ScalingReport",
    "evaluate_scaling_point",
    "scaling_sweep",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (algorithm, geometry) coordinate of the sweep."""

    algo: str
    n: int
    p: int
    c: int = 1
    scheme: str = "strassen"      # consumed only by scheme-driven algorithms
    schedule: str | None = None   # CAPS only; None = all-BFS
    memory_limit: int | None = None
    seed: int = 11                # inputs are integer_matrix(n, seed) / (n, seed+2)


@dataclass(frozen=True)
class ScalingSpec:
    """The sweep: every algorithm's valid configs with p ≤ p_max, c ∈ cs."""

    algos: tuple[str, ...]
    n: int = 56
    p_max: int = 64
    cs: tuple[int, ...] = (1, 2, 4)
    scheme: str = "strassen"
    seed: int = 11
    alpha: float = 1.0
    beta: float = 1.0
    topology: Topology | None = None   # None = Topology.uniform(alpha, beta)

    def __post_init__(self) -> None:
        object.__setattr__(self, "algos", tuple(self.algos))
        object.__setattr__(self, "cs", tuple(self.cs))

    def machine_topology(self) -> Topology:
        """The machine the sweep is costed on (uniform unless overridden)."""
        if self.topology is not None:
            return self.topology
        return Topology.uniform(self.alpha, self.beta)

    def points(self) -> list[ScalingPoint]:
        p_max = self.p_max
        cap = self.machine_topology().capacity
        if cap is not None:
            p_max = min(p_max, cap)
        pts = []
        for name in self.algos:
            algo = get_parallel(name)
            sch = get_scheme(self.scheme) if algo.uses_scheme else None
            for cfg in algo.default_configs(self.n, p_max, cs=self.cs, scheme=sch):
                pts.append(
                    ScalingPoint(
                        algo=name,
                        n=self.n,
                        p=cfg["p"],
                        c=cfg.get("c", 1),
                        scheme=self.scheme,
                        schedule=cfg.get("schedule"),
                        seed=self.seed,
                    )
                )
        return pts


@dataclass
class ScalingReport:
    """Aggregated sweep result: rows in point order plus cache accounting."""

    spec: ScalingSpec
    rows: list[dict]
    stats: dict[str, int]
    wall_time: float

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            jsonable(
                {
                    "spec": {
                        "algos": list(self.spec.algos),
                        "n": self.spec.n,
                        "p_max": self.spec.p_max,
                        "cs": list(self.spec.cs),
                        "scheme": self.spec.scheme,
                        "seed": self.spec.seed,
                        "alpha": self.spec.alpha,
                        "beta": self.spec.beta,
                        # only heterogeneous sweeps carry the extra key, so
                        # the uniform spec JSON stays golden-pinned verbatim
                        **(
                            {"topology": self.spec.topology.name}
                            if self.spec.topology is not None
                            else {}
                        ),
                    },
                    "rows": self.rows,
                    "stats": self.stats,
                    "wall_time": self.wall_time,
                }
            ),
            indent=indent,
            allow_nan=False,
        )


# ---------------------------------------------------------------------- #
# one point                                                               #
# ---------------------------------------------------------------------- #

_MEASURED_INTS = (
    "critical_words",
    "critical_messages",
    "max_mem_peak",
    "total_words",
    "supersteps",
    "verified",
)


def _measure(point: ScalingPoint) -> dict:
    """Run the simulation and extract the cacheable counters.

    The per-superstep per-rank message/word tallies (dense ``S × p``
    arrays) are kept so the α–β critical-path time can be evaluated for
    any (α, β) without re-simulating.
    """
    algo = get_parallel(point.algo)
    A = integer_matrix(point.n, seed=point.seed)
    B = integer_matrix(point.n, seed=point.seed + 2)
    cfg = ParallelConfig(
        n=point.n,
        p=point.p,
        c=point.c,
        scheme=point.scheme if algo.uses_scheme else None,
        schedule=point.schedule,
        memory_limit=point.memory_limit,
    )
    r = algo.execute(A, B, cfg, verify=True)
    log = r.machine.log
    return {
        "critical_words": r.critical_words,
        "critical_messages": r.critical_messages,
        "max_mem_peak": r.max_mem_peak,
        "total_words": log.total_words,
        "supersteps": log.n_supersteps,
        "verified": int(bool(r.verified)),
        "step_words": log.step_words,
        "step_msgs": log.step_msgs,
        "label": r.algorithm,
    }


def _ab_time(measured: dict, topology: Topology) -> float:
    """Critical-path time of the cached tallies on ``topology``: on
    ``Topology.uniform(alpha, beta)`` the flat α-β time
    ``Σ_steps max_r (α·msgs_r + β·words_r)`` (golden-pinned)."""
    return topology.time_from_steps(measured["step_msgs"], measured["step_words"])


def _encode_measured(measured: dict) -> dict[str, np.ndarray]:
    return {
        **{name: np.int64(measured[name]) for name in _MEASURED_INTS},
        "step_words": measured["step_words"],
        "step_msgs": measured["step_msgs"],
        "label": np.asarray(measured["label"]),
    }


def _decode_measured(data: dict[str, np.ndarray]) -> dict:
    return {
        **{name: int(data[name]) for name in _MEASURED_INTS},
        "step_words": data["step_words"],
        "step_msgs": data["step_msgs"],
        "label": str(data["label"]),
    }


def _cached_measure(point: ScalingPoint, cache: EngineCache) -> dict:
    algo = get_parallel(point.algo)
    sch = get_scheme(point.scheme) if algo.uses_scheme else None
    key = cache_key(
        "scaling",
        sch,
        algo=point.algo,
        n=point.n,
        p=point.p,
        c=point.c,
        schedule=point.schedule,
        memory_limit=point.memory_limit,
        seed=point.seed,
    )
    return cache.memoize(
        key, lambda: _measure(point), encode=_encode_measured, decode=_decode_measured
    )


def evaluate_scaling_point(
    point: ScalingPoint,
    cache: EngineCache | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    topology: Topology | None = None,
) -> dict:
    """One sweep row: measured counters + declared costs + both bounds.

    The memory-dependent bound is evaluated at the run's *measured* peak
    memory (the honest M the algorithm actually used); the memory-
    independent floor needs no M at all.  ``binding`` names the larger of
    the two at that M and ``p_limit`` where the crossover sits.
    """
    cache = cache if cache is not None else default_cache()
    topology = topology if topology is not None else Topology.uniform(alpha, beta)
    algo = get_parallel(point.algo)
    sch = get_scheme(point.scheme) if algo.uses_scheme else None
    measured = _cached_measure(point, cache)

    w0 = algo.omega0(sch)
    costs = algo.analytic_costs(
        point.n, point.p, c=point.c, scheme=sch, schedule=point.schedule
    )
    M = measured["max_mem_peak"]
    regime = scaling_regime(point.n, point.p, M, w0)
    lower = regime.bound
    row = {
        "algorithm": point.algo,
        "label": measured["label"],
        "class": algo.algorithm_class,
        "n": point.n,
        "p": point.p,
        "c": point.c,
        "scheme": sch.name if sch is not None else None,
        "schedule": point.schedule,
        "omega0": w0,
        "measured_words": measured["critical_words"],
        "measured_messages": measured["critical_messages"],
        "time": _ab_time(measured, topology),
        "mem_peak": M,
        "analytic_words": costs.words,
        "analytic_messages": costs.messages,
        "analytic_memory": costs.memory,
        "memory_dependent_bound": regime.memory_dependent,
        "memory_independent_bound": regime.memory_independent,
        "lower_bound": lower,
        "binding": regime.binding,
        "p_limit": regime.p_limit,
        "measured/analytic": (
            measured["critical_words"] / costs.words if costs.words > 0 else math.nan
        ),
        "measured/lower": (
            measured["critical_words"] / lower if lower > 0 else math.nan
        ),
        "verified": bool(measured["verified"]),
    }
    return row


def scaling_sweep(
    spec: ScalingSpec,
    cache: EngineCache | None = None,
    workers: int | None = None,
) -> ScalingReport:
    """Run the whole sweep through the cache (warm reruns simulate nothing).

    Points are cheap simulations (n is small), so the sweep defaults to
    serial; ``workers > 1`` fans the points over the shared persistent pool
    (clamped to the point count), with rows in deterministic point order
    and per-task cache-counter deltas merged into one stats block either
    way.  The cache layer is what makes repeats and overlapping sweeps
    free.
    """
    cache = cache if cache is not None else default_cache()
    start = time.perf_counter()
    topology = spec.machine_topology()
    points = spec.points()
    rows, stats = pool_runtime.map_cached(
        partial(evaluate_scaling_point, topology=topology),
        points,
        cache,
        workers if workers is not None else 1,
    )
    return ScalingReport(
        spec=spec,
        rows=rows,
        stats=stats,
        wall_time=time.perf_counter() - start,
    )
