"""Which public functions the traced run wraps, and what each one counts.

Span names are ``<layer>.<what>``; the per-layer metrics in
``BENCHMARK.json`` sum self time over a name prefix (``parallel.execute``
covers ``parallel.execute.caps`` and the other algorithms).
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer


def _vertices(counts: dict[str, float], args: tuple, kwargs: dict, g: Any) -> None:
    counts["cdag.vertices_built"] = g.n_vertices


def _machine(counts: dict[str, float], args: tuple, kwargs: dict, r: Any) -> None:
    counts["machine.critical_words"] = r.critical_words
    counts["machine.critical_messages"] = r.critical_messages
    counts["machine.supersteps"] = r.machine.log.n_supersteps


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (the program must be imported)."""
    from repro.algorithms.io_strassen import dfs_io_model, rect_dfs_io_model
    from repro.cdag.strassen_cdag import dec_graph
    from repro.core.exact import exact_edge_expansion_v2
    from repro.core.expansion import (
        decode_cone_upper_bound,
        fiedler_sweep_cut,
        spectral_lower_bound,
    )
    from repro.engine.planner import plan
    from repro.engine.pool import submit_batch
    from repro.engine.scaling import scaling_sweep
    from repro.parallel.base import ParallelAlgorithm
    from repro.util.jsonutil import jsonable

    tracer.patch_function(dec_graph, "cdag.dec_graph", _vertices)
    tracer.patch_function(spectral_lower_bound, "core.spectral")
    tracer.patch_function(fiedler_sweep_cut, "core.sweep_cut")
    tracer.patch_function(decode_cone_upper_bound, "core.cone")
    tracer.patch_function(exact_edge_expansion_v2, "core.exact")
    tracer.patch_function(dfs_io_model, "algorithms.io_model")
    tracer.patch_function(rect_dfs_io_model, "algorithms.io_model")
    tracer.patch_function(submit_batch, "pool.submit")
    tracer.patch_function(scaling_sweep, "engine.scaling")
    tracer.patch_function(plan, "engine.plan")
    tracer.patch_function(jsonable, "util.jsonable", skip_home=True)
    tracer.patch_method(
        ParallelAlgorithm, "execute", lambda algo: f"parallel.execute.{algo.name}", _machine
    )
