"""repro.api — the session-oriented entry point to the library.

Build one :class:`Solver` per process or service worker, describe work
with typed request objects, and get enriched responses back::

    from repro.api import ContainmentRequest, Solver, SolverConfig

    solver = Solver(SolverConfig(max_conjuncts=50_000))
    response = solver.solve(ContainmentRequest(q2, q1, sigma))
    response.holds          # the answer
    response.cache_hit      # False the first time, True on repeats
    response.elapsed_s      # wall time of this call
    response.budget         # how much of the chase budget was used

The legacy module-level functions (``repro.is_contained``,
``repro.chase``, ``repro.optimize``, …) remain available and are thin
wrappers over a shared default Solver, so existing code transparently
gains the cross-call caches.
"""

from repro.api.cache import CacheInfo, LRUCache
from repro.api.config import LEGACY_CONTAINMENT_KWARGS, SolverConfig
from repro.api.fingerprints import (
    catalog_fingerprint,
    dependency_fingerprint,
    query_fingerprint,
    schema_fingerprint,
    view_fingerprint,
)
from repro.api.persistent import PersistentCache, PersistentCacheError
from repro.api.requests import (
    BudgetUsage,
    ChaseRequest,
    ChaseResponse,
    ContainmentRequest,
    ContainmentResponse,
    OptimizeRequest,
    OptimizeResponse,
    PairwiseContainment,
    RewriteRequest,
    RewriteResponse,
    SolveRequest,
    SolveResponse,
)
from repro.api.solver import (
    Solver,
    SolverStats,
    get_default_solver,
    reset_default_solver,
    resolve_solver,
    set_default_solver,
)

__all__ = [
    "BudgetUsage",
    "CacheInfo",
    "ChaseRequest",
    "ChaseResponse",
    "ContainmentRequest",
    "ContainmentResponse",
    "LEGACY_CONTAINMENT_KWARGS",
    "LRUCache",
    "OptimizeRequest",
    "OptimizeResponse",
    "PairwiseContainment",
    "PersistentCache",
    "PersistentCacheError",
    "RewriteRequest",
    "RewriteResponse",
    "SolveRequest",
    "SolveResponse",
    "Solver",
    "SolverConfig",
    "SolverStats",
    "catalog_fingerprint",
    "dependency_fingerprint",
    "get_default_solver",
    "query_fingerprint",
    "reset_default_solver",
    "schema_fingerprint",
    "resolve_solver",
    "set_default_solver",
    "view_fingerprint",
]
