"""Per-layer spans for the traced server, recorded from outside ``src/``.

:class:`LayerTracer` wraps the public functions of each layer of the
program (service protocol and pool, parser, solver and fingerprints,
chase registry factories, homomorphism search, containment procedures,
views, fleet) in the server process, before the server is built.  Each
wrapped call is a span: its name, its start and end, and the span that
called it (the innermost open span on the same thread).  A span's self
time is its duration minus the durations of its child spans.  A call
made inside an open span of the same name (a fingerprint that
fingerprints its parts) belongs to that span and opens none.

Spans are aggregated in memory as they close (total self time and call
count per span name), because a run issues tens of thousands of
requests; :meth:`LayerTracer.snapshot` hands the totals to the load
generator, which divides by the number of requests in the timed phase.

Three kinds of wrapper cover the three call shapes:

* synchronous functions and methods: a span around the call;
* generators (the homomorphism enumeration): a span around each
  ``next()``, so the consumer's own work between items is not counted;
* coroutines (the service and coordinator front ends): an interval per
  request id, kept apart from the thread stacks because asyncio tasks
  interleave on one thread.

Nothing here imports the program at module level; :meth:`install`
does, so the module is importable without ``src/`` on the path.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Data-plane ops: the requests whose queue wait and front-end intervals
#: are recorded (control-plane and catalog ops never reach a shard).
DATA_OPS = frozenset({"contain", "chase", "rewrite"})

#: The request interval a front-end task is inside, as a one-slot list
#: that top-level spans on that task add their durations to.  Asyncio
#: tasks each carry their own context, so interleaved requests on one
#: event-loop thread never share a slot.
_FRONT: "ContextVar[Optional[list]]" = ContextVar("servedbench_front",
                                                  default=None)


def _replace_everywhere(original: Any, replacement: Any) -> int:
    """Rebind every ``repro.*`` module attribute that is ``original``.

    Layers import each other's functions by name (``from
    repro.parser.query_parser import parse_query``), so wrapping the
    defining module alone would miss the callers' own bindings.
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


class LayerTracer:
    """Wraps the program's layers and aggregates their spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    # -- aggregation ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (start of a timed phase)."""
        with self._lock:
            self._self_s: Dict[str, float] = defaultdict(float)
            self._calls: Dict[str, int] = defaultdict(int)
            self._counters: Dict[str, float] = defaultdict(float)
            self._enqueued: Dict[Any, float] = {}
            self._intervals: Dict[str, Dict[Any, Tuple[float, float]]] = (
                defaultdict(dict))

    def snapshot(self) -> Dict[str, Any]:
        """Totals since the last reset, JSON-ready."""
        with self._lock:
            coordinator = self._intervals.get("fleet.coordinator", {})
            node = self._intervals.get("fleet.node", {})
            forwarded = [key for key in coordinator if key in node]
            # The coordinator's own spans (routing fingerprints, admission)
            # are already counted under their names; the forward's self
            # time is what remains of its interval around the node's.
            forward_self = sum(coordinator[key][0] - coordinator[key][1]
                               - node[key][0] for key in forwarded)
            return {
                "self_s": dict(self._self_s),
                "calls": dict(self._calls),
                "counters": dict(self._counters),
                "fleet_forward": {"requests": len(forwarded),
                                  "self_s": forward_self},
            }

    def _thread(self) -> Tuple[List[list], Dict[str, int]]:
        """This thread's open spans, and how many are open per name."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(int))
        return state

    def _open(self, name: str, counted: bool = True) -> Optional[list]:
        stack, open_names = self._thread()
        if open_names[name]:
            # Nested in a span of the same name (a fingerprint that
            # fingerprints its parts): part of that span, not a new one.
            return None
        open_names[name] += 1
        frame = [name, perf_counter(), 0.0, counted]
        stack.append(frame)
        return frame

    def _close(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        elapsed = perf_counter() - frame[1]
        stack, open_names = self._thread()
        stack.pop()
        open_names[frame[0]] -= 1
        if stack:
            stack[-1][2] += elapsed
        else:
            front = _FRONT.get()
            if front is not None:
                front[0] += elapsed
        with self._lock:
            self._self_s[frame[0]] += elapsed - frame[2]
            if frame[3]:
                self._calls[frame[0]] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, function: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``function`` with a span around every call.

        ``before(args, kwargs)`` runs just before the span opens and
        ``after(args, kwargs, result)`` just after it closes; both feed
        counters.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def generator_span(self, name: str, function: Callable) -> Callable:
        """A generator function with a span around each ``next()``."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            first = True
            try:
                while True:
                    # Only the first step of one enumeration is a call.
                    frame = tracer._open(name, counted=first)
                    first = False
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        return wrapper

    def interval(self, name: str, function: Callable) -> Callable:
        """A coroutine method timed per data-plane request id.

        Records (interval, time in top-level spans inside it) per id.
        """
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            front = [0.0]
            token = _FRONT.set(front)
            started = perf_counter()
            try:
                envelope = await function(*args, **kwargs)
            finally:
                _FRONT.reset(token)
            elapsed = perf_counter() - started
            if isinstance(envelope, dict) and envelope.get("op") in DATA_OPS:
                with tracer._lock:
                    tracer._intervals[name][envelope.get("id")] = (elapsed,
                                                                   front[0])
            return envelope

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; call before any server object is built."""
        # importlib, not ``import a.b as c``: the ``repro`` package
        # re-exports a ``chase`` function that shadows the subpackage.
        from importlib import import_module as load
        fingerprints = load("repro.api.fingerprints")
        load("repro.chase.columnar")  # binds run_with_instrumentation
        load("repro.chase.legacy_engine")
        chase_engine = load("repro.chase.engine")
        registry = load("repro.chase.registry")
        termination = load("repro.chase.termination")
        fd_containment = load("repro.containment.fd_containment")
        ind_containment = load("repro.containment.ind_containment")
        no_dependencies = load("repro.containment.no_dependencies")
        serialization = load("repro.containment.serialization")
        coordinator = load("repro.fleet.coordinator")
        load("repro.fleet.node")
        search = load("repro.homomorphism.search")
        tracing = load("repro.obs.tracing")
        query_parser = load("repro.parser.query_parser")
        pool = load("repro.service.pool")
        protocol = load("repro.service.protocol")
        server = load("repro.service.server")
        views_index = load("repro.views.index")
        rewriting = load("repro.views.rewriting")
        from repro.api.solver import Solver

        def everywhere(name: str, original: Callable, **hooks: Any) -> None:
            _replace_everywhere(original, self.span(name, original, **hooks))

        everywhere("protocol.parse_line", protocol.parse_line)
        everywhere("protocol.handle_record", protocol.handle_record,
                   before=self._queue_wait_ends)
        for function in (serialization.containment_result_to_dict,
                         serialization.chase_result_to_dict):
            everywhere("serialization.result", function)
        rewriting.RewriteReport.as_dict = self.span(
            "serialization.result", rewriting.RewriteReport.as_dict)
        everywhere("parser.parse_query", query_parser.parse_query)
        for function in (fingerprints.schema_signature,
                         fingerprints.schema_fingerprint,
                         fingerprints.query_fingerprint,
                         fingerprints.dependency_fingerprint,
                         fingerprints.view_fingerprint,
                         fingerprints.catalog_fingerprint):
            everywhere("fingerprints", function)
        for function in (termination.chase_guaranteed_finite,
                         termination.analyse_termination,
                         termination.estimate_chase_size):
            everywhere("termination.analysis", function)
        for function in (ind_containment.contained_under_bounded_chase,
                         no_dependencies.contained_without_dependencies,
                         fd_containment.contained_under_fds):
            everywhere("containment.decide", function)
        everywhere("chase.run", chase_engine.run_with_instrumentation,
                   after=self._chase_ran)
        for name in registry.available_engines():
            registry.register_engine(
                name, self.span("chase.construct", registry.engine_factory(name)),
                replace=True)
        everywhere("hom.search", search.find_homomorphism)
        _replace_everywhere(search.iter_homomorphisms,
                            self.generator_span("hom.search",
                                                search.iter_homomorphisms))
        everywhere("catalog.index_build", views_index.build_catalog_index)

        pool.ShardedSolverPool.submit = self.span(
            "pool.submit", pool.ShardedSolverPool.submit,
            after=self._enqueued_at)
        Solver.solve = self.span("solver.solve", Solver.solve)
        server.SolverService._answer = self.interval(
            "fleet.node", server.SolverService._answer)
        coordinator.FleetCoordinator._answer = self.interval(
            "fleet.coordinator", coordinator.FleetCoordinator._answer)
        coordinator.FleetCoordinator._broadcast_catalog = self.span_async(
            "fleet.broadcast", coordinator.FleetCoordinator._broadcast_catalog)

        finish_trace = tracing.Tracer._finish_trace

        def counted_finish(tracer_self, root):
            self.count("obs.spans", len(root._sink or [root]))
            return finish_trace(tracer_self, root)

        tracing.Tracer._finish_trace = counted_finish

    def span_async(self, name: str, function: Callable) -> Callable:
        """A coroutine whose whole duration is summed under ``name``."""
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                tracer.count(f"{name}.s", perf_counter() - started)
                tracer.count(f"{name}.calls")

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _enqueued_at(self, args, kwargs, future) -> None:
        record = args[1] if len(args) > 1 else kwargs.get("record")
        if isinstance(record, dict) and record.get("op") in DATA_OPS:
            with self._lock:
                self._enqueued[record.get("id")] = perf_counter()

    def _queue_wait_ends(self, args, kwargs) -> None:
        record = args[0] if args else kwargs.get("record")
        if not isinstance(record, dict):
            return
        now = perf_counter()
        with self._lock:
            enqueued = self._enqueued.pop(record.get("id"), None)
            if enqueued is not None:
                self._counters["pool.queue_wait.s"] += now - enqueued

    def _chase_ran(self, args, kwargs, result) -> None:
        with self._lock:
            self._counters["chase.runs"] += 1
            self._counters["chase.conjuncts"] += len(result)
            self._counters["chase.triggers_examined"] += (
                result.statistics.triggers_examined)
