"""The :class:`Solver` facade — one session object for every procedure.

A Solver owns a :class:`SolverConfig` and three cross-call LRU caches of
answers, each optionally backed by a :class:`PersistentCache`:

* a **containment cache** keyed on the canonical fingerprints of
  (Q, Q', Σ) plus the config fields that can change the answer, so a
  repeated question returns the identical
  :class:`~repro.containment.result.ContainmentResult` without rebuilding
  anything;
* a **chase cache** keyed on (query, Σ, chase budgets), shared between
  stand-alone chase requests and the bounded-chase containment procedure,
  so deciding many ``Q ⊆ Q'_k`` questions against one Q re-uses each chase
  prefix instead of rebuilding it per question;
* a **rewrite cache** keyed on (query, catalog, Σ) plus the config fields
  that shape the view search.

Structures derived from the inputs themselves (fingerprints, compiled
dependency plans, a catalog's extended schema and signature index) live
on those inputs, not here.

Work is submitted either through the typed request objects
(:meth:`Solver.solve`, :meth:`Solver.solve_many`,
:meth:`Solver.contains_all_pairs`) or through the legacy-shaped
convenience methods (:meth:`Solver.is_contained`, :meth:`Solver.chase`,
:meth:`Solver.optimize`, :meth:`Solver.minimize_under`), which the old
module-level functions now delegate to.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.cache import CacheInfo, LRUCache
from repro.api.config import SolverConfig
from repro.api.persistent import PersistentCache
from repro.api.fingerprints import (
    catalog_fingerprint,
    dependency_fingerprint,
    query_fingerprint,
)
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
from repro.chase.engine import (
    ChaseConfig,
    ChaseResult,
    ChaseVariant,
    build_engine,
    resolve_engine_name,
)
from repro.chase.termination import chase_guaranteed_finite
from repro.containment.fd_containment import contained_under_fds
from repro.containment.ind_containment import contained_under_bounded_chase
from repro.containment.no_dependencies import contained_without_dependencies
from repro.containment.result import ContainmentResult
from repro.dependencies.dependency_set import DependencyClass, DependencySet
from repro.exceptions import ReproError
from repro.obs import probe as _probe
from repro.obs.clock import monotonic
from repro.obs.tracing import maybe_span
from repro.optimizer.pipeline import OptimizationReport, _optimize
from repro.optimizer.pipeline import optimize as pipeline_optimize
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.views.cost import CostModel
from repro.views.rewriting import RewriteReport, _search
from repro.views.view import ViewCatalog


@dataclass
class SolverStats:
    """Per-solver request counters (cache counters live on the caches).

    Increments go through :meth:`count` so concurrent ``solve_many``
    workers sharing one solver cannot lose updates.
    """

    containment_requests: int = 0
    chase_requests: int = 0
    optimize_requests: int = 0
    rewrite_requests: int = 0
    batch_calls: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    @property
    def total_requests(self) -> int:
        return (self.containment_requests + self.chase_requests
                + self.optimize_requests + self.rewrite_requests)


class Solver:
    """A configured, caching session over the Johnson–Klug procedures."""

    def __init__(self, config: Optional[SolverConfig] = None,
                 persistent_cache: Optional[PersistentCache] = None):
        self._config = config or SolverConfig()
        self._containment_cache = LRUCache(self._config.containment_cache_size)
        self._chase_cache = LRUCache(self._config.chase_cache_size)
        self._rewrite_cache = LRUCache(self._config.rewrite_cache_size)
        # An explicit store wins over the config path so several solvers
        # (service shards in one process) can share one connection.
        if persistent_cache is not None:
            self._persistent = persistent_cache
            self._owns_persistent = False
        elif self._config.persistent_cache_path is not None:
            self._persistent = PersistentCache(self._config.persistent_cache_path)
            self._owns_persistent = True
        else:
            self._persistent = None
            self._owns_persistent = False
        # Per-solver views of the persistent tier: the store may be
        # shared (service shards, sibling workers), so its own global
        # counters cannot tell this solver's hit rate apart from its
        # neighbours'.
        self._persistent_lock = threading.Lock()
        self._persistent_hits = 0
        self._persistent_misses = 0
        self._persistent_writes = 0
        self.stats = SolverStats()

    @property
    def config(self) -> SolverConfig:
        return self._config

    @property
    def persistent_cache(self) -> Optional[PersistentCache]:
        return self._persistent

    def close(self) -> None:
        """Release the persistent store (no-op for purely in-memory solvers).

        Only a store this solver opened itself is closed; an injected
        shared store belongs to whoever created it.
        """
        if self._persistent is not None and self._owns_persistent:
            self._persistent.close()

    # -- cache plumbing ------------------------------------------------------

    def cache_info(self) -> Dict[str, CacheInfo]:
        return {"containment": self._containment_cache.info(),
                "chase": self._chase_cache.info(),
                "rewrite": self._rewrite_cache.info()}

    def cache_stats(self) -> Dict[str, Dict]:
        """Aggregated counters for every internal cache, JSON-ready.

        One entry per cache (containment, chase, rewrite), a
        ``persistent`` entry when a disk store is attached (its hits and
        misses also roll into ``total``), plus a ``total`` aggregate;
        surfaced in the CLI's ``--json`` output and the service's
        ``stats`` op so one document shows the whole cache picture.
        """
        infos = self.cache_info()
        stats: Dict[str, Dict] = {name: info.as_dict()
                                  for name, info in infos.items()}
        hits = sum(info.hits for info in infos.values())
        misses = sum(info.misses for info in infos.values())
        size = sum(info.size for info in infos.values())
        maxsize = sum(info.maxsize for info in infos.values())
        if self._persistent is not None:
            store = self._persistent.stats()
            with self._persistent_lock:
                local_hits = self._persistent_hits
                local_misses = self._persistent_misses
                local_writes = self._persistent_writes
            local_requests = local_hits + local_misses
            # hits/misses/writes are THIS solver's probes; the store may
            # be shared across solvers (service shards), so its global
            # counters ride along under "store" instead of being folded
            # into per-solver numbers.
            stats["persistent"] = {
                "path": store["path"],
                "hits": local_hits,
                "misses": local_misses,
                "writes": local_writes,
                "size": store["size"],
                "hit_rate": (round(local_hits / local_requests, 4)
                             if local_requests else 0.0),
                "namespaces": store["namespaces"],
                "store": {"hits": store["hits"], "misses": store["misses"],
                          "writes": store["writes"],
                          "hit_rate": store["hit_rate"]},
            }
            hits += local_hits
            # The store sits behind the LRUs, so every disk probe was
            # first an LRU miss: a disk hit turns that miss into a hit,
            # and only the remaining misses were truly unanswered.
            misses = max(misses - local_hits, 0)
            size += store["size"]
            maxsize += store["size"]
        requests = hits + misses
        stats["total"] = {
            "hits": hits,
            "misses": misses,
            "size": size,
            "maxsize": maxsize,
            "hit_rate": round(hits / requests, 4) if requests else 0.0,
        }
        return stats

    def clear_caches(self, persistent: bool = False) -> None:
        """Empty the in-memory caches; ``persistent=True`` also wipes the disk store."""
        self._containment_cache.clear()
        self._chase_cache.clear()
        self._rewrite_cache.clear()
        if persistent and self._persistent is not None:
            self._persistent.clear()

    def _cache_marker(self) -> Tuple[int, int]:
        """(hits, fresh computes) seen so far, across every cache tier.

        Composite procedures (the optimize pipeline) bracket their run
        with two markers to report a truthful ``cache_hit``: hits are
        LRU hits plus persistent-store hits, and a "fresh compute" is a
        probe no tier could answer — a persistent miss when a store is
        attached (every disk probe was first an LRU miss), otherwise an
        LRU miss.  Concurrent callers sharing this solver can smear the
        numbers; the field is informational, mirroring the single-call
        responses.
        """
        containment = self._containment_cache.info()
        chase = self._chase_cache.info()
        with self._persistent_lock:
            persistent_hits = self._persistent_hits
            persistent_misses = self._persistent_misses
        hits = containment.hits + chase.hits + persistent_hits
        if self._persistent is not None:
            fresh = persistent_misses
        else:
            fresh = containment.misses + chase.misses
        return hits, fresh

    def _cache_hit_since(self, marker: Tuple[int, int]) -> bool:
        """True when the bracketed run was answered entirely from caches."""
        hits, fresh = self._cache_marker()
        return hits > marker[0] and fresh == marker[1]

    def _answer(self, cache: LRUCache, namespace: str,
                key_of: Callable[[], Tuple], compute: Callable[[], Any],
                cacheable: bool = True) -> Tuple[Any, bool]:
        """One answer: the LRU, then the persistent tier, then ``compute``.

        Returns the answer and whether a cache tier held it; a computed
        answer is stored in both tiers.  An answer that is not
        ``cacheable``, or one with neither tier to keep it (an LRU of
        size 0 and no persistent store), is computed without calling
        ``key_of``, so nothing is fingerprinted.
        """
        if not cacheable or (cache.maxsize == 0 and self._persistent is None):
            return compute(), False
        key = key_of()
        with maybe_span("cache.lookup", cache=namespace) as span:
            value = cache.get(key)
            if span is not None:
                span.tags["hit"] = value is not None
        if value is not None:
            return value, True
        if self._persistent is not None:
            value = self._persistent.get(namespace, key)
            with self._persistent_lock:
                if value is not None:
                    self._persistent_hits += 1
                else:
                    self._persistent_misses += 1
        hit = value is not None
        if not hit:
            value = compute()
            if self._persistent is not None:
                self._persistent.put(namespace, key, value)
                with self._persistent_lock:
                    self._persistent_writes += 1
        cache.put(key, value)
        return value, hit

    def _cached_chase(self, query: ConjunctiveQuery,
                      dependencies: DependencySet,
                      config: ChaseConfig) -> Tuple[ChaseResult, bool]:
        # The display name rides along because ChaseResult.query (and the
        # reports derived from it) surface it; content fingerprints alone
        # would conflate equal queries with different names.  The resolved
        # engine name is part of the key so legacy and columnar runs of the
        # differential harness never share a result.
        return self._answer(
            self._chase_cache, "chase",
            lambda: (
                query.name,
                query_fingerprint(query),
                dependency_fingerprint(dependencies),
                config.variant,
                config.max_level,
                config.max_conjuncts,
                config.max_steps,
                config.record_trace,
                resolve_engine_name(config.engine),
            ),
            lambda: build_engine(query, dependencies, config).run())

    def _chase_fn(self, query: ConjunctiveQuery, dependencies: DependencySet,
                  config: ChaseConfig) -> ChaseResult:
        """The chase callable threaded into the containment procedure."""
        result, _ = self._cached_chase(query, dependencies, config)
        return result

    # -- containment ---------------------------------------------------------

    def is_contained(self, query: ConjunctiveQuery,
                     query_prime: ConjunctiveQuery,
                     dependencies: Optional[DependencySet] = None,
                     **options) -> ContainmentResult:
        """Legacy-shaped containment decision (see the old ``is_contained``).

        ``options`` are the historical keyword arguments (``variant``,
        ``level_bound``, ``max_conjuncts``, ``record_trace``,
        ``with_certificate``, ``deepening``); they override the session
        config for this call.
        """
        result, _ = self._decide(query, query_prime, dependencies,
                                 self._config.with_legacy_kwargs(**options))
        return result

    def _decide(self, query: ConjunctiveQuery, query_prime: ConjunctiveQuery,
                dependencies: Optional[DependencySet],
                config: SolverConfig) -> Tuple[ContainmentResult, bool]:
        self.stats.count("containment_requests")
        sigma = dependencies if dependencies is not None else DependencySet()

        def compute() -> ContainmentResult:
            classification = sigma.classify(query.input_schema)
            if classification is DependencyClass.EMPTY:
                return contained_without_dependencies(query, query_prime)
            if classification is DependencyClass.FD_ONLY:
                return contained_under_fds(query, query_prime, sigma)
            exact = classification in (DependencyClass.IND_ONLY,
                                       DependencyClass.KEY_BASED)
            # Outside the paper's decidable classes (general FD/IND mixes
            # and embedded TGD/EGD sets) a weak-acyclicity certificate
            # upgrades the semi-decision: the R-chase terminates, so
            # deepening to saturation yields an exact verdict.  The
            # guarantee covers the restricted chase only.
            assume_terminating = (
                not exact
                and config.certify_termination
                and config.level_bound is None  # an explicit bound wins
                and config.variant is ChaseVariant.RESTRICTED
            )
            if assume_terminating:
                with maybe_span("termination.analysis") as span:
                    assume_terminating = chase_guaranteed_finite(
                        sigma, query.input_schema)
                    if span is not None:
                        span.tags["certified"] = assume_terminating
            return contained_under_bounded_chase(
                query, query_prime, sigma,
                variant=config.variant,
                level_bound=config.level_bound,
                max_conjuncts=config.max_conjuncts,
                exact=exact,
                record_trace=config.record_trace,
                with_certificate=config.with_certificate,
                deepening=config.deepening,
                chase_fn=self._chase_fn,
                engine=config.chase_engine,
                assume_terminating=assume_terminating,
                saturation_level_cap=config.saturation_level_cap,
            )

        # Results carrying certificates are never cached: certificates are
        # standalone artifacts a caller may legitimately mutate (tampering
        # experiments, redaction before shipping), so sharing one object
        # across calls would let one caller corrupt another's proof.
        return self._answer(
            self._containment_cache, "containment",
            lambda: (
                (query.name, query_fingerprint(query)),
                (query_prime.name, query_fingerprint(query_prime)),
                dependency_fingerprint(sigma),
                config.containment_key(),
            ),
            compute, cacheable=not config.with_certificate)

    # -- chase ---------------------------------------------------------------

    def chase(self, query: ConjunctiveQuery,
              dependencies: Optional[DependencySet] = None,
              config: Optional[ChaseConfig] = None) -> ChaseResult:
        """Legacy-shaped chase (see the old module-level ``chase``).

        ``config=None`` falls back to the session's ``chase_*`` knobs
        (which default to the historical ``ChaseConfig()`` values).
        """
        self.stats.count("chase_requests")
        sigma = dependencies if dependencies is not None else DependencySet()
        chase_config = config or self._config.chase_config()
        result, _ = self._cached_chase(query, sigma, chase_config)
        return result

    # -- optimization --------------------------------------------------------

    def optimize(self, query: ConjunctiveQuery,
                 dependencies: Optional[DependencySet] = None,
                 name: Optional[str] = None,
                 **containment_options) -> OptimizationReport:
        """Legacy-shaped rewrite pipeline (see the old ``optimize``)."""
        self.stats.count("optimize_requests")
        return pipeline_optimize(query, dependencies, name=name, solver=self,
                                 **containment_options)

    def minimize_under(self, query: ConjunctiveQuery,
                       dependencies: Optional[DependencySet] = None,
                       name: Optional[str] = None,
                       **options) -> ConjunctiveQuery:
        """Minimization under Σ, routed through this solver's caches."""
        from repro.containment.equivalence import minimize_under as legacy_minimize
        return legacy_minimize(query, dependencies, name=name, solver=self,
                               **options)

    # -- view rewriting ------------------------------------------------------

    def rewrite(self, query: ConjunctiveQuery, catalog: ViewCatalog,
                dependencies: Optional[DependencySet] = None,
                cost_model: Optional[CostModel] = None,
                config: Optional[SolverConfig] = None) -> RewriteReport:
        """Chase & backchase rewriting of ``query`` over ``catalog``'s views.

        Reports are cached across calls keyed on the canonical
        fingerprints of (query, catalog, Σ) plus the config fields that
        shape the search, so re-rewriting a repeated workload costs one
        LRU lookup.  A non-default ``cost_model`` bypasses the cache
        (callables have no content fingerprint); the inner containment
        and chase calls still hit their own caches either way.
        """
        report, _ = self._cached_rewrite(query, catalog, dependencies,
                                         cost_model, config or self._config)
        return report

    def _cached_rewrite(self, query: ConjunctiveQuery, catalog: ViewCatalog,
                        dependencies: Optional[DependencySet],
                        cost_model: Optional[CostModel],
                        config: SolverConfig) -> Tuple[RewriteReport, bool]:
        self.stats.count("rewrite_requests")
        sigma = dependencies if dependencies is not None else DependencySet()

        def compute() -> RewriteReport:
            # The search and its certification run under the config the
            # cache key reflects, even when it differs from this solver's
            # session config.
            with maybe_span("rewrite.search"):
                return _search(query, catalog, sigma, self, config,
                               cost_model=cost_model)

        # Mirrors _decide: certificate-bearing results are never cached
        # (the report's rewritings embed both directions' containment
        # results, and certificates are standalone artifacts a caller may
        # legitimately mutate).  Cached reports are shared objects —
        # treat them as immutable, like cached ChaseResults.
        return self._answer(
            self._rewrite_cache, "rewrite",
            lambda: (
                (query.name, query_fingerprint(query)),
                catalog_fingerprint(catalog),
                dependency_fingerprint(sigma),
                config.rewrite_key(),
            ),
            compute,
            cacheable=cost_model is None and not config.with_certificate)

    # -- the request/response surface ----------------------------------------

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Execute one typed request and return its enriched response."""
        if isinstance(request, ContainmentRequest):
            op, response = "contain", self._solve_containment(request)
        elif isinstance(request, ChaseRequest):
            op, response = "chase", self._solve_chase(request)
        elif isinstance(request, OptimizeRequest):
            op, response = "optimize", self._solve_optimize(request)
        elif isinstance(request, RewriteRequest):
            op, response = "rewrite", self._solve_rewrite(request)
        else:
            raise ReproError(
                f"unknown request type {type(request).__name__}; expected "
                "ContainmentRequest, ChaseRequest, OptimizeRequest, or "
                "RewriteRequest")
        probe = _probe.ACTIVE
        if probe is not None:
            probe.request(op, response.elapsed_s, response.cache_hit)
        return response

    def _solve_containment(self, request: ContainmentRequest) -> ContainmentResponse:
        config = request.config or self._config
        started = monotonic()
        result, cache_hit = self._decide(
            request.query, request.query_prime, request.dependencies, config)
        elapsed = monotonic() - started
        budget = BudgetUsage(
            chase_size=result.chase_size,
            max_conjuncts=config.max_conjuncts,
            levels_built=result.levels_built,
            level_bound=result.level_bound,
        )
        return ContainmentResponse(
            elapsed_s=elapsed, cache_hit=cache_hit, config=config,
            budget=budget, tag=request.tag, result=result)

    def _solve_chase(self, request: ChaseRequest) -> ChaseResponse:
        config = request.config or self._config
        chase_config = config.chase_config(max_level=request.max_level)
        sigma = (request.dependencies if request.dependencies is not None
                 else DependencySet())
        self.stats.count("chase_requests")
        started = monotonic()
        result, cache_hit = self._cached_chase(request.query, sigma, chase_config)
        elapsed = monotonic() - started
        budget = BudgetUsage(
            chase_size=len(result),
            max_conjuncts=chase_config.max_conjuncts,
            levels_built=result.max_level(),
            level_bound=chase_config.max_level,
        )
        return ChaseResponse(
            elapsed_s=elapsed, cache_hit=cache_hit, config=config,
            budget=budget, tag=request.tag, result=result)

    def _solve_optimize(self, request: OptimizeRequest) -> OptimizeResponse:
        config = request.config or self._config
        self.stats.count("optimize_requests")
        started = monotonic()
        marker = self._cache_marker()
        # Join elimination certifies under the config the response reports.
        report = _optimize(request.query, request.dependencies, request.name,
                           self, config)
        cache_hit = self._cache_hit_since(marker)
        elapsed = monotonic() - started
        return OptimizeResponse(
            elapsed_s=elapsed, cache_hit=cache_hit, config=config,
            tag=request.tag, report=report)

    def _solve_rewrite(self, request: RewriteRequest) -> RewriteResponse:
        config = request.config or self._config
        started = monotonic()
        report, cache_hit = self._cached_rewrite(
            request.query, request.catalog, request.dependencies,
            request.cost_model, config)
        elapsed = monotonic() - started
        return RewriteResponse(
            elapsed_s=elapsed, cache_hit=cache_hit, config=config,
            tag=request.tag, report=report)

    # -- batch execution -----------------------------------------------------

    def solve_many(self, requests: Sequence[SolveRequest],
                   parallelism: Optional[int] = None,
                   executor: Optional[str] = None) -> List[SolveResponse]:
        """Execute many requests, preserving input order.

        ``parallelism``/``executor`` default to the session config.  The
        thread executor shares this solver's caches (useful when requests
        overlap); the process executor trades cache sharing for true CPU
        parallelism by solving each request in a fresh worker solver.
        """
        self.stats.count("batch_calls")
        requests = list(requests)
        workers = parallelism if parallelism is not None else self._config.parallelism
        mode = executor if executor is not None else self._config.executor
        if mode not in ("serial", "thread", "process"):
            raise ReproError(f"unknown executor {mode!r}")
        if workers is None or workers <= 1 or len(requests) <= 1 or mode == "serial":
            return [self.solve(request) for request in requests]

        import concurrent.futures as futures
        if mode == "thread":
            pool_cls = futures.ThreadPoolExecutor
            with pool_cls(max_workers=workers) as pool:
                return list(pool.map(self.solve, requests))
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve_in_worker,
                                 ((request, self._config) for request in requests)))

    def contains_all_pairs(self, queries: Sequence[ConjunctiveQuery],
                           dependencies: Optional[DependencySet] = None,
                           parallelism: Optional[int] = None,
                           executor: Optional[str] = None) -> PairwiseContainment:
        """All ordered containment questions among ``queries`` under Σ.

        The chase cache makes this markedly cheaper than n·(n−1)
        independent calls: each query is chased once per level budget, not
        once per opponent.
        """
        queries = tuple(queries)
        pairs = [(i, j) for i in range(len(queries))
                 for j in range(len(queries)) if i != j]
        requests = [
            ContainmentRequest(queries[i], queries[j], dependencies,
                               tag=f"{i}->{j}")
            for i, j in pairs
        ]
        responses = self.solve_many(requests, parallelism=parallelism,
                                    executor=executor)
        return PairwiseContainment(
            queries=queries,
            responses={pair: response for pair, response in zip(pairs, responses)},
        )


def _solve_in_worker(payload: Tuple[SolveRequest, SolverConfig]) -> SolveResponse:
    """Process-pool entry point: solve one request in a fresh solver."""
    request, config = payload
    return Solver(config.derive(parallelism=None, executor="serial")).solve(request)


# ---------------------------------------------------------------------------
# The process-wide default solver the legacy functional API delegates to
# ---------------------------------------------------------------------------

_default_solver: Optional[Solver] = None
_default_solver_lock = threading.Lock()


def get_default_solver() -> Solver:
    """The lazily-created solver behind ``is_contained``/``chase``/… ."""
    global _default_solver
    if _default_solver is None:
        with _default_solver_lock:
            if _default_solver is None:
                _default_solver = Solver()
    return _default_solver


def resolve_solver(solver: Optional[Solver]) -> Solver:
    """``solver`` itself, or the process-wide default when ``None``.

    The helper the optional ``solver=`` parameters across the library
    (optimizer pipeline, equivalence, minimization) resolve through.
    """
    return solver if solver is not None else get_default_solver()


def set_default_solver(solver: Solver) -> Solver:
    """Install a configured solver as the process-wide default."""
    global _default_solver
    with _default_solver_lock:
        _default_solver = solver
    return solver


def reset_default_solver() -> None:
    """Drop the default solver (a fresh one is created on next use)."""
    global _default_solver
    with _default_solver_lock:
        _default_solver = None
