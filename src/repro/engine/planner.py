"""Topology-aware auto-scheduler over the parallel-algorithm registry.

Table I is ultimately a scheduling claim — which algorithm attains which
communication bound in which memory regime — and this module answers it
constructively: :func:`plan` searches the registry × (p, c, scheme,
schedule) space on a given :class:`~repro.topology.Topology`, prices every
candidate with the pure ``estimate`` API (no arrays, no simulation), drops
configurations whose per-rank footprint exceeds the memory limit, and
returns :class:`Plan` records ranked by predicted time.  Each record
carries the candidate's predicted time, words, messages, memory, flops,
and the binding lower bound (:func:`~repro.core.bounds.scaling_regime`
evaluated at the plan's own footprint), so a ranking is also a Table-I
classification.

:func:`plan_report` sweeps a ladder of memory limits (tight → unlimited by
default) in one call — the regime flip the paper predicts shows up as the
top-ranked algorithm changing across the ladder.

Plans are deterministic functions of (n, scheme, topology, memory limit,
search bounds), so plan tables are cached in the content-addressed store
(kind ``"plan"``, keyed by the topology's ``cache_token``); warm calls
re-rank from disk without re-enumerating.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.cdag.schemes import get_scheme
from repro.core.bounds import scaling_regime
from repro.engine.cache import EngineCache, cache_key, default_cache
from repro.engine.pool import map_cached
from repro.parallel.base import ParallelConfig, available_parallel, get_parallel
from repro.topology import Topology
from repro.util.jsonutil import jsonable

__all__ = [
    "Plan",
    "default_memory_ladder",
    "enumerate_plans",
    "plan",
    "plan_report",
]

#: Search cap when the topology's device fleet is unbounded.
DEFAULT_P_MAX = 64


@dataclass(frozen=True)
class Plan:
    """One ranked schedule: a configuration plus its predicted price tag."""

    algorithm: str
    label: str
    n: int
    p: int
    c: int
    scheme: str | None
    schedule: str | None
    omega0: float
    predicted_time: float
    words: float
    messages: float
    memory: float
    flops: float
    lower_bound: float   # max of the two Table-I bounds at this plan's footprint
    binding: str         # which bound binds there ("memory-dependent"/"-independent")

    def config(self, memory_limit: int | None = None) -> ParallelConfig:
        """The executable configuration this plan names."""
        return ParallelConfig(
            n=self.n,
            p=self.p,
            c=self.c,
            scheme=self.scheme,
            schedule=self.schedule,
            memory_limit=memory_limit,
        )

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "label": self.label,
            "n": self.n,
            "p": self.p,
            "c": self.c,
            "scheme": self.scheme,
            "schedule": self.schedule,
            "omega0": self.omega0,
            "predicted_time": self.predicted_time,
            "words": self.words,
            "messages": self.messages,
            "memory": self.memory,
            "flops": self.flops,
            "lower_bound": self.lower_bound,
            "binding": self.binding,
        }

    @classmethod
    def from_dict(cls, row: dict) -> Plan:
        return cls(**{f: row[f] for f in cls.__dataclass_fields__})


def default_memory_ladder(n: int, p_cap: int) -> tuple[int | None, ...]:
    """Tight → roomy → unlimited per-rank word budgets for one ``plan`` call.

    The tight rung (≈4·n²/p) admits only minimal-footprint 2D algorithms;
    the roomy rung (≈32·n²/p) re-admits the replicating/3D family; the
    unlimited rung lets all-BFS CAPS spend memory freely — so one ladder
    walks every Table-I regime.
    """
    if n < 1 or p_cap < 1:
        raise ValueError(f"memory ladder needs n >= 1 and p_cap >= 1 (got {n}, {p_cap})")
    base = n * n / p_cap
    return (math.ceil(4 * base), math.ceil(32 * base), None)


def enumerate_plans(
    n: int,
    scheme: str = "strassen",
    topology: Topology | None = None,
    memory_limit: int | None = None,
    *,
    p_max: int | None = None,
    cs: Sequence[int] = (1, 2, 4),
    algos: Sequence[str] | None = None,
) -> tuple[list[Plan], int]:
    """Search the registry and rank feasible candidates (pure, uncached).

    Returns ``(ranked_plans, searched)`` where ``searched`` counts every
    candidate configuration priced, feasible or not.  Ranking is by
    predicted time with a deterministic (words, messages, p, label)
    tie-break.
    """
    topology = topology if topology is not None else Topology.uniform()
    cap = topology.capacity
    if p_max is None:
        p_max = cap if cap is not None else DEFAULT_P_MAX
    if cap is not None:
        p_max = min(p_max, cap)
    names = list(algos) if algos is not None else available_parallel()

    plans: list[Plan] = []
    searched = 0
    for name in names:
        algo = get_parallel(name)
        scheme_arg = scheme if algo.uses_scheme else None
        for cfg in algo.plan_configs(n, p_max, cs=cs, scheme=scheme_arg):
            searched += 1
            est = algo.estimate(cfg, topology=topology)
            if memory_limit is not None and est.memory > memory_limit:
                continue
            sch = get_scheme(cfg.scheme) if cfg.scheme is not None else None
            w0 = algo.omega0(sch)
            # The honest M for the bound is the plan's own footprint — the
            # memory this schedule actually commits to using.
            regime = scaling_regime(n, cfg.p, max(1, math.ceil(est.memory)), w0)
            plans.append(
                Plan(
                    algorithm=name,
                    label=algo.result_label(p=cfg.p, c=cfg.c, scheme=sch, **cfg.options()),
                    n=n,
                    p=cfg.p,
                    c=cfg.c,
                    scheme=cfg.scheme,
                    schedule=cfg.schedule,
                    omega0=w0,
                    predicted_time=topology.predict_time(
                        est.words, est.messages, p=cfg.p, flops=est.flops
                    ),
                    words=est.words,
                    messages=est.messages,
                    memory=est.memory,
                    flops=est.flops,
                    lower_bound=regime.bound,
                    binding=regime.binding,
                )
            )
    plans.sort(
        key=lambda pl: (pl.predicted_time, pl.words, pl.messages, pl.p, pl.label)
    )
    return plans, searched


def plan(
    n: int,
    scheme: str = "strassen",
    topology: Topology | None = None,
    memory_limit: int | None = None,
    *,
    p_max: int | None = None,
    cs: Sequence[int] = (1, 2, 4),
    algos: Sequence[str] | None = None,
    cache: EngineCache | None = None,
) -> list[Plan]:
    """Ranked feasible :class:`Plan` records for one memory limit (cached)."""
    cache = cache if cache is not None else default_cache()
    topology = topology if topology is not None else Topology.uniform()
    key = cache_key(
        "plan",
        get_scheme(scheme),
        n=n,
        topology=topology.cache_token(),
        memory_limit=memory_limit,
        p_max=p_max,
        cs=tuple(cs),
        algos=tuple(algos) if algos is not None else None,
    )

    def build() -> dict:
        plans, searched = enumerate_plans(
            n, scheme, topology, memory_limit, p_max=p_max, cs=cs, algos=algos
        )
        return {"rows": [pl.as_dict() for pl in plans], "searched": searched}

    cached = cache.memoize(
        key,
        build,
        encode=lambda table: {"rows": np.asarray(json.dumps(jsonable(table), allow_nan=False))},
        decode=lambda data: json.loads(str(data["rows"])),
    )
    return [Plan.from_dict(row) for row in cached["rows"]]


def plan_report(
    n: int,
    scheme: str = "strassen",
    topology: Topology | None = None,
    memory_limits: Sequence[int | None] | None = None,
    *,
    p_max: int | None = None,
    cs: Sequence[int] = (1, 2, 4),
    algos: Sequence[str] | None = None,
    cache: EngineCache | None = None,
) -> dict:
    """Run :func:`plan` across a memory-limit ladder and summarize winners.

    The returned dict is JSON-ready: the spec, one ranked table per memory
    limit, the per-limit winning algorithm, and cache accounting.  The
    regime flip shows up as ``winners`` naming different algorithms on
    different rungs.
    """
    cache = cache if cache is not None else default_cache()
    topology = topology if topology is not None else Topology.uniform()
    if memory_limits is None:
        cap = topology.capacity
        p_cap = p_max if p_max is not None else (cap if cap is not None else DEFAULT_P_MAX)
        memory_limits = default_memory_ladder(n, p_cap)
    start = time.perf_counter()
    ranked_tables, stats = map_cached(
        partial(plan, n, scheme, topology, p_max=p_max, cs=cs, algos=algos),
        memory_limits,
        cache,
        1,
    )
    tables = []
    winners: dict[str, str | None] = {}
    for limit, ranked in zip(memory_limits, ranked_tables):
        label = "unlimited" if limit is None else str(limit)
        winners[label] = ranked[0].algorithm if ranked else None
        tables.append(
            {
                "memory_limit": limit,
                "rows": [pl.as_dict() for pl in ranked],
            }
        )
    return jsonable(
        {
            "spec": {
                "n": n,
                "scheme": scheme,
                "topology": topology.describe(),
                "memory_limits": list(memory_limits),
                "p_max": p_max,
                "cs": list(cs),
                "algos": list(algos) if algos is not None else None,
            },
            "tables": tables,
            "winners": winners,
            "flips": len({w for w in winners.values() if w is not None}) > 1,
            "stats": stats,
            "wall_time": time.perf_counter() - start,
        }
    )
