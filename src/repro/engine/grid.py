"""Parallel (scheme, k, M, policy) sweep engine.

The paper's experiments are grids: for each scheme and recursion depth,
estimate ``h(Dec_k C)`` and compare the measured depth-first I/O against the
``(n/√M)^ω₀·M`` bound across memory sizes.  The seed scripts ran such grids
point-by-point, rebuilding every graph; this runner fans the points out over
worker processes, shares one content-addressed cache between them, and
aggregates one report.

Per point the expensive work is M-independent (graph build + expansion
estimate), so a ``(schemes × ks × memories)`` grid touches each (scheme, k)
artifact once — and a warm cache makes the whole sweep rebuild-free
(``GridReport.stats["builds"] == 0``).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.cdag.schemes import get_scheme
from repro.core.bounds import rect_sequential_io_bound, sequential_io_bound
from repro.algorithms.io_strassen import dfs_io_model, rect_dfs_io_model
from repro.engine import pool as pool_runtime
from repro.engine.builders import cached_dec_graph, cached_estimate
from repro.engine.cache import EngineCache, default_cache
from repro.util.jsonutil import jsonable

__all__ = ["GridPoint", "GridSpec", "GridReport", "evaluate_point", "run_grid"]


@dataclass(frozen=True)
class GridPoint:
    """One sweep coordinate."""

    scheme: str
    k: int
    M: int
    policy: str = "auto"


@dataclass(frozen=True)
class GridSpec:
    """The cartesian sweep ``schemes × ks × memories × policies``."""

    schemes: tuple[str, ...]
    ks: tuple[int, ...]
    memories: tuple[int, ...]
    policies: tuple[str, ...] = ("auto",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "memories", tuple(self.memories))
        object.__setattr__(self, "policies", tuple(self.policies))

    @classmethod
    def from_ranges(
        cls,
        schemes: Sequence[str],
        k_max: int,
        memories: Sequence[int],
        policies: Sequence[str] = ("auto",),
        k_min: int = 1,
    ) -> "GridSpec":
        return cls(
            schemes=tuple(schemes),
            ks=tuple(range(k_min, k_max + 1)),
            memories=tuple(memories),
            policies=tuple(policies),
        )

    def points(self) -> list[GridPoint]:
        return [
            GridPoint(scheme=s, k=k, M=M, policy=p)
            for s, k, M, p in itertools.product(
                self.schemes, self.ks, self.memories, self.policies
            )
        ]


@dataclass
class GridReport:
    """Aggregated sweep result: rows in point order plus cache accounting."""

    spec: GridSpec
    rows: list[dict]
    stats: dict[str, int]
    wall_time: float
    workers: int

    @property
    def rebuilds(self) -> int:
        """Artifact constructions the cache could not avoid (0 when warm)."""
        return self.stats.get("builds", 0)

    def to_json(self, indent: int | None = None) -> str:
        # NaN/Inf (e.g. h_lower of cone-only rows) are not valid JSON; map
        # them to null so strict parsers can consume the output.
        return json.dumps(
            jsonable(
                {
                    "spec": {
                        "schemes": list(self.spec.schemes),
                        "ks": list(self.spec.ks),
                        "memories": list(self.spec.memories),
                        "policies": list(self.spec.policies),
                    },
                    "rows": self.rows,
                    "stats": self.stats,
                    "wall_time": self.wall_time,
                    "workers": self.workers,
                }
            ),
            indent=indent,
            allow_nan=False,
        )


def evaluate_point(point: GridPoint, cache: EngineCache | None = None) -> dict:
    """One grid row: graph stats, expansion sandwich, and I/O vs bound.

    The problem shape is ``(m₀^k, n₀^k, p₀^k)`` — the matrices whose
    recursion tree has depth exactly ``k``, the natural pairing of a memory
    size with the ``Dec_k C`` analysis.  For square schemes ``n = n₀^k`` and
    the paper's Theorem 1.1/1.3 bound applies verbatim; rectangular schemes
    use the geometric-mean form of the bound and the rectangular depth-first
    I/O model.
    """
    cache = cache if cache is not None else default_cache()
    s = get_scheme(point.scheme)
    g = cached_dec_graph(s, point.k, cache=cache)
    est = cached_estimate(s, point.k, policy=point.policy, cache=cache)
    iv = est.interval()
    m_dim, n_dim, p_dim = (s.m0**point.k, s.n0**point.k, s.p0**point.k)
    ratio = s.c_blocks / s.t0
    row = {
        "scheme": point.scheme,
        "k": point.k,
        "M": point.M,
        "policy": point.policy,
        "V": g.n_vertices,
        "E": g.n_edges,
        "max_degree": g.max_degree,
        "h_lower": est.lower,
        "h_upper": est.upper,
        # The certified interval: h_lower_cert is the interval's lower bound
        # (the trivial 0 when only a cone witness ran, where h_lower is NaN),
        # and provenance names the proof path ("exact", "cheeger+sweep", ...).
        "h_lower_cert": iv.lower,
        "provenance": iv.provenance,
        "h_upper/(c0/t0)^k": est.upper / ratio**point.k,
        "witness_size": est.witness_size,
        "method": est.method,
        "shape": f"{m_dim}x{n_dim}x{p_dim}",
        "n": n_dim,
        "io_lower_bound": (
            sequential_io_bound(n_dim, point.M, s.omega0)
            if s.is_square
            else rect_sequential_io_bound(m_dim, n_dim, p_dim, point.M, s.omega0)
        ),
    }
    if point.M >= 3:  # dfs recursion can always cut to 1x1 blocks
        if s.is_square:
            words = dfs_io_model(n_dim, point.M, s).words
        else:
            words = rect_dfs_io_model(m_dim, n_dim, p_dim, point.M, s).words
        row["measured_words"] = words
        row["measured/lower"] = words / row["io_lower_bound"]
    else:
        row["measured_words"] = math.nan
        row["measured/lower"] = math.nan
    return row


def run_grid(
    spec: GridSpec,
    workers: int | None = None,
    cache: EngineCache | None = None,
) -> GridReport:
    """Run the sweep; ``workers`` > 1 fans points over the shared pool.

    All workers share the serial cache's *disk* root (atomic writes make
    concurrent population safe); their in-memory layers are per-process.
    Rows come back in deterministic point order regardless of worker count,
    and the stats aggregate hit/miss/build counters across all processes.
    ``workers`` is clamped to the point count (a 2-point grid with
    ``workers=8`` fans out over 2 processes, not 8), and the pool's serial
    modes (``REPRO_POOL=0``, permanent fallback) run the same tasks inline
    with bit-identical rows.
    """
    cache = cache if cache is not None else default_cache()
    points = spec.points()
    start = time.perf_counter()
    n_workers = max(1, min(workers if workers is not None else 1, len(points)))
    rows, stats = pool_runtime.map_cached(evaluate_point, points, cache, n_workers)
    return GridReport(
        spec=spec,
        rows=rows,
        stats=stats,
        wall_time=time.perf_counter() - start,
        workers=n_workers,
    )
