"""The paper's contribution: bounds, expansion analysis, partition argument.

The names below resolve on first access (:mod:`repro._lazy`): the exact
scan in :mod:`repro.core.exact` loads no scipy, the eigensolver does.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.bounds import (
        LG7,
        Table1Cell,
        latency_bound,
        memory_regimes,
        parallel_io_bound,
        sequential_io_bound,
        sequential_io_upper,
        table1_cell,
        table1_rows,
    )
    from repro.core.exact import exact_edge_expansion_v2
    from repro.core.expansion import (
        ExpansionEstimate,
        claim_2_1_small_set_bound,
        decode_cone_mask,
        decode_cone_upper_bound,
        estimate_expansion,
        expansion_of_cut,
        fiedler_sweep_cut,
        spectral_lower_bound,
    )
    from repro.core.partition import (
        SegmentStats,
        best_partition_bound,
        expansion_io_bound,
        partition_bound,
        segment_stats,
    )
    from repro.core.dominator import hong_kung_2m_partition_bound, minimum_dominator_size

__all__ = [
    "exact_edge_expansion_v2",
    "LG7",
    "Table1Cell",
    "latency_bound",
    "memory_regimes",
    "parallel_io_bound",
    "sequential_io_bound",
    "sequential_io_upper",
    "table1_cell",
    "table1_rows",
    "ExpansionEstimate",
    "claim_2_1_small_set_bound",
    "decode_cone_mask",
    "decode_cone_upper_bound",
    "estimate_expansion",
    "expansion_of_cut",
    "fiedler_sweep_cut",
    "spectral_lower_bound",
    "SegmentStats",
    "best_partition_bound",
    "expansion_io_bound",
    "partition_bound",
    "segment_stats",
    "hong_kung_2m_partition_bound",
    "minimum_dominator_size",
]

__getattr__, __dir__ = attach(__name__)
