"""The shipped domain checkers; importing this package registers them all.

Catalog (stable codes):

=======  =====================  ==============================================
code     name                   invariant
=======  =====================  ==============================================
RC101    cache-fingerprint      every parameter of a ``cache_key``-calling
                                builder flows into the key (or is exempt)
RC201    registry-parallel      ``@register_parallel`` classes declare
                                validity + analytic-cost contracts
RC202    registry-bench         ``@register_bench`` workloads return a
                                scalar ``check`` payload
RC203    registry-pure-cost     pure-cost methods of registered parallel
                                algorithms never touch numpy or ``Machine``
RC301    strict-json            no raw ``json.dump(s)`` on non-literal
                                payloads outside ``util/jsonutil``
RC401    spawn-pool             no lambdas/closures/bound methods submitted
                                to multiprocessing pools
RC402    spawn-order            no unordered-set iteration feeding work
                                construction in multiprocessing modules
RC403    async-cache-lock       async handlers touch the shared engine
                                cache only inside a lock block
RC404    adhoc-pool             process pools are constructed only by the
                                shared runtime (``repro/engine/pool.py``)
RC501    bitset-dtype           uint64 bitset arrays never mix with
                                signed/float operands
RC601    broad-except           no new bare/broad ``except`` clauses
=======  =====================  ==============================================
"""

from repro.analysis.checkers import (  # noqa: F401  (import-for-effect)
    async_cache,
    bitset_dtype,
    broad_except,
    cache_fingerprint,
    registry_contracts,
    spawn_pool,
    strict_json,
)

__all__ = [
    "async_cache",
    "bitset_dtype",
    "broad_except",
    "cache_fingerprint",
    "registry_contracts",
    "spawn_pool",
    "strict_json",
]
