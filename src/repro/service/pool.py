"""The shard-affinity worker pool behind the solver service.

``N`` workers, each owning one :class:`~repro.api.solver.Solver`;
requests route by ``hash(schema_fingerprint, dependency_fingerprint)
% N`` (:func:`~repro.service.protocol.shard_for`), so every request of a
tenant lands on the same shard and that shard's chase/containment/
rewrite caches stay hot for exactly that tenant.  Random routing is
also available — not as a serving mode but as the experimental control
the E17 benchmark compares affinity against.

Three execution modes share one request path (``handle_record``):

* ``thread`` — one worker thread per shard (the default).  Shards share
  one :class:`~repro.api.persistent.PersistentCache` connection, which
  the pool opens when the config names a ``persistent_cache_path``.
* ``process`` — one worker process per shard, for CPU parallelism
  beyond the GIL.  Each process opens its own connection to the shared
  persistent-cache file, which is how sibling workers warm each other.
* ``inline`` — shard solvers executed synchronously in the caller's
  thread.  No concurrency, identical routing and caching (the shared
  connection included); used by deterministic tests and benchmarks.

Thread and inline shards read their pool's one
:class:`~repro.service.protocol.TenantParser`, the memo the front end
already filled while routing and registering catalogs, so a tenant's
texts are parsed once per pool.  A process shard keeps its own, because
it runs in another address space; only text crosses that boundary.

Every shard queue is bounded: a full queue raises
:class:`~repro.service.protocol.ServiceOverloaded` at submission time
instead of buffering without limit, which is the pool's half of the
service's backpressure story (the asyncio front end adds global
admission control on top).
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import threading
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.config import SolverConfig
from repro.api.persistent import PersistentCache
from repro.api.solver import Solver
from repro.exceptions import ReproError
from repro.service.protocol import (
    CatalogStore,
    ProtocolError,
    ServiceDefaults,
    ServiceLimits,
    ServiceOverloaded,
    TenantParser,
    exception_envelope,
    handle_catalog_record,
    handle_record,
    op_of,
    resolve_catalog_record,
    routing_fingerprints,
    shard_for,
)

POOL_MODES = ("thread", "process", "inline")

_STOP = None  # queue sentinel


def _process_shard_main(shard: int, config: SolverConfig,
                        defaults: ServiceDefaults, limits: ServiceLimits,
                        requests: multiprocessing.Queue,
                        responses: multiprocessing.Queue) -> None:
    """A process shard's main loop (module-level so it pickles)."""
    solver = Solver(config)
    parser = TenantParser()
    try:
        while True:
            record = requests.get()
            if record is _STOP:
                break
            responses.put(handle_record(record, solver, defaults, limits,
                                        parser, shard))
    finally:
        solver.close()


class _Shard:
    """One worker: a bounded inbox plus whatever executes it.

    A thread or inline shard owns its solver and parses with its pool's
    ``parser``; a process shard's solver and parser live in its child.
    """

    def __init__(self, index: int, pool: "ShardedSolverPool"):
        self.index = index
        self.submitted = 0
        self._pool = pool
        self._inbox: "queue.Queue" = queue.Queue(maxsize=pool.max_pending)
        mode = pool.mode
        if mode == "inline":
            self.solver = Solver(pool.config, persistent_cache=pool.shared_persistent)
            self._thread = None
            self._process = None
        elif mode == "thread":
            self.solver = Solver(pool.config, persistent_cache=pool.shared_persistent)
            self._thread = threading.Thread(
                target=self._thread_main, name=f"repro-shard-{index}", daemon=True)
            self._process = None
            self._thread.start()
        else:  # process
            self.solver = None
            context = multiprocessing.get_context()
            self._requests = context.Queue()
            self._responses = context.Queue()
            self._process = context.Process(
                target=_process_shard_main,
                args=(index, pool.config, pool.defaults, pool.limits,
                      self._requests, self._responses),
                name=f"repro-shard-{index}", daemon=True)
            self._process.start()
            # The dispatcher forwards one record at a time and matches the
            # single in-flight response, preserving FIFO order per shard —
            # exactly the semantics of a shard owning one solver.
            self._thread = threading.Thread(
                target=self._dispatch_main, name=f"repro-shard-{index}-dispatch",
                daemon=True)
            self._thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, record: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        future: "Future[Dict[str, Any]]" = Future()
        if self._pool.mode == "inline":
            self.submitted += 1
            future.set_result(handle_record(
                record, self.solver, self._pool.defaults, self._pool.limits,
                self._pool.parser, self.index))
            return future
        try:
            self._inbox.put_nowait((record, future))
        except queue.Full:
            raise ServiceOverloaded(
                f"shard {self.index} has {self._inbox.maxsize} requests pending")
        self.submitted += 1
        return future

    # -- worker loops --------------------------------------------------------

    def _thread_main(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                break
            record, future = item
            response = handle_record(record, self.solver, self._pool.defaults,
                                     self._pool.limits, self._pool.parser,
                                     self.index)
            if not future.cancelled():
                future.set_result(response)

    def _dispatch_main(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                self._requests.put(_STOP)
                break
            record, future = item
            try:
                self._requests.put(record)
                response = self._responses.get()
            except Exception as error:  # pragma: no cover - child died mid-request
                if not future.cancelled():
                    future.set_exception(error)
                continue
            if not future.cancelled():
                future.set_result(response)

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        if self._thread is not None:
            self._inbox.put(_STOP)
            self._thread.join(timeout=30)
        if self._process is not None:
            self._process.join(timeout=30)
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.terminate()
        if self.solver is not None:
            self.solver.close()


class ShardedSolverPool:
    """``shard_count`` solvers with deterministic tenant→shard affinity."""

    def __init__(self, shard_count: int = 4,
                 config: Optional[SolverConfig] = None,
                 mode: str = "thread",
                 defaults: ServiceDefaults = ServiceDefaults(),
                 limits: ServiceLimits = ServiceLimits(),
                 max_pending: int = 1024,
                 routing_seed: int = 0):
        if shard_count <= 0:
            raise ReproError("shard_count must be positive")
        if mode not in POOL_MODES:
            raise ReproError(
                f"unknown pool mode {mode!r}; expected one of {POOL_MODES}")
        if max_pending <= 0:
            raise ReproError("max_pending must be positive")
        self.config = config or SolverConfig()
        self.mode = mode
        self.defaults = defaults
        self.limits = limits
        self.max_pending = max_pending
        self.parser = TenantParser()
        # Registered view catalogs live front-side, never in a shard:
        # catalog.* ops are answered here, and rewrite-by-fingerprint
        # records are materialised back into plain rewrites *before*
        # routing — so process shards (another address space) need no
        # store of their own.
        self.catalogs = CatalogStore()
        self.rejected = 0
        self._random = random.Random(routing_seed)
        # Thread and inline shards share one pool-owned connection to the
        # configured store; process shards each open their own connection
        # to its path (SQLite WAL arbitrates).
        self.shared_persistent: Optional[PersistentCache] = None
        if mode != "process" and self.config.persistent_cache_path is not None:
            self.shared_persistent = PersistentCache(
                self.config.persistent_cache_path)
        self.shards: List[_Shard] = [_Shard(index, self)
                                     for index in range(shard_count)]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # -- routing -------------------------------------------------------------

    def shard_for_record(self, record: Dict[str, Any]) -> int:
        """The shard a record's tenant is pinned to (parses schema/deps)."""
        schema_fp, deps_fp = routing_fingerprints(record, self.defaults,
                                                  self.parser)
        return shard_for(schema_fp, deps_fp, self.shard_count)

    def _route(self, record: Dict[str, Any],
               routing: Union[str, int]) -> int:
        if isinstance(routing, int):
            if not 0 <= routing < self.shard_count:
                raise ReproError(
                    f"shard {routing} out of range [0, {self.shard_count})")
            return routing
        if routing == "affinity":
            # Control ops carry no tenant; pin them to shard 0 so they
            # route deterministically without parsing anything.
            op = op_of(record)
            if op is not None and op.family == "control":
                return 0
            return self.shard_for_record(record)
        if routing == "random":
            return self._random.randrange(self.shard_count)
        raise ReproError(
            f"unknown routing {routing!r}; expected 'affinity', 'random', "
            "or a shard index")

    # -- execution -----------------------------------------------------------

    def submit(self, record: Dict[str, Any],
               routing: Union[str, int] = "affinity") -> "Future[Dict[str, Any]]":
        """Route and enqueue one record; the future resolves to its envelope.

        Raises :class:`ServiceOverloaded` (and counts the rejection)
        when the target shard's inbox is full — backpressure is the
        caller's problem by design, because only the caller knows
        whether to shed, retry, or block.

        ``catalog.*`` records are answered front-side from the pool's
        :class:`CatalogStore` (an already-completed future), and a
        ``rewrite`` carrying a registered ``catalog_fp`` is resolved to
        its views text here, before routing ever parses the record.
        """
        record, completed = self._front_side(record)
        if completed is not None:
            return completed
        shard = self.shards[self._route(record, routing)]
        try:
            return shard.submit(record)
        except ServiceOverloaded:
            self.rejected += 1
            raise

    def _front_side(self, record: Dict[str, Any]):
        """Front-end catalog handling: (possibly-resolved record, done future).

        The future is non-``None`` exactly when the record was fully
        answered here (a ``catalog.*`` op, or a resolution failure that
        became an error envelope) and must not be routed.
        """
        op = op_of(record)
        if op is not None and op.family == "catalog":
            envelope = handle_catalog_record(record, self.catalogs,
                                             self.defaults, self.parser)
        else:
            try:
                return resolve_catalog_record(record, self.catalogs), None
            except ProtocolError as error:
                envelope = exception_envelope(error, record.get("id"))
        future: "Future[Dict[str, Any]]" = Future()
        future.set_result(envelope)
        return record, future

    def execute(self, record: Dict[str, Any],
                routing: Union[str, int] = "affinity") -> Dict[str, Any]:
        """Route, run, and wait for one record."""
        return self.submit(record, routing).result()

    def execute_all(self, records: Sequence[Dict[str, Any]],
                    routing: Union[str, int] = "affinity") -> List[Dict[str, Any]]:
        """Run many records, shard-parallel, preserving input order.

        Submission blocks (rather than rejecting) when a shard inbox is
        full: a bulk caller wants throughput, not shed load.
        """
        futures = []
        for record in records:
            record, completed = self._front_side(record)
            if completed is not None:
                futures.append(completed)
                continue
            shard = self.shards[self._route(record, routing)]
            if self.mode == "inline":
                futures.append(shard.submit(record))
                continue
            future: "Future[Dict[str, Any]]" = Future()
            shard._inbox.put((record, future))
            shard.submitted += 1
            futures.append(future)
        return [future.result() for future in futures]

    # -- introspection -------------------------------------------------------

    def pending(self) -> int:
        """Requests enqueued but not yet completed (approximate)."""
        if self.mode == "inline":
            return 0
        return sum(shard._inbox.qsize() for shard in self.shards)

    def counters(self) -> Dict[str, Any]:
        """The pool-level routing/backpressure counters, JSON-ready."""
        return {
            "mode": self.mode,
            "shard_count": self.shard_count,
            "max_pending": self.max_pending,
            "rejected": self.rejected,
            "pending": self.pending(),
            "catalogs": len(self.catalogs),
        }

    @staticmethod
    def shard_snapshot(shard: "_Shard",
                       envelope: Dict[str, Any]) -> Dict[str, Any]:
        """One shard's stats row, given its answered ``stats`` envelope.

        Shared by :meth:`stats` and the service front end's ``stats``
        op, so the two views of a shard cannot drift apart.
        """
        return {
            "shard": shard.index,
            "submitted": shard.submitted,
            "cache_stats": envelope["result"]["cache_stats"],
            "requests": envelope["result"]["requests"],
        }

    def stats(self) -> Dict[str, Any]:
        """Routing-level counters plus each shard's own cache statistics.

        Shard statistics travel as ``stats`` ops through the normal
        request path, so they are exact in every mode — including
        process shards, whose solvers live in another address space.
        """
        per_shard = [
            self.shard_snapshot(shard, shard.submit({"op": "stats"}).result())
            for shard in self.shards
        ]
        return {**self.counters(), "shards": per_shard}

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        if self.shared_persistent is not None:
            self.shared_persistent.close()

    def __enter__(self) -> "ShardedSolverPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
