"""Span-based tracing with wire propagation and a ring-buffer store.

One **trace** is one request's journey: a ``trace_id`` minted where the
request is born (usually :class:`~repro.service.client.ServiceClient`)
and carried on the wire in the record's ``trace_context`` field::

    {"op": "contain", ..., "trace_context": {"id": "<trace_id>",
                                             "parent": "<span_id>",
                                             "collect": true}}

Each process that handles the request opens a **root span** adopted from
that context (:meth:`Tracer.start_trace`), and the code it runs opens
**child spans** for its phases (:func:`maybe_span`): parse, cache
lookup, termination analysis, chase, homomorphism search.  Finished
traces land in the process's :class:`TraceStore` ring buffer, queryable
via the ``obs.trace`` protocol op; a worker additionally returns its
serialized spans in the response envelope when the context asked to
``collect``, which is how a coordinator absorbs a node's spans into its
own store — one ``obs.trace`` lookup at the coordinator then shows the
whole cross-process tree.

A request pays only for timing its spans.  Everything a reader needs
is worked out when the store is read: a span's id is minted when first
read, a child's wall-clock start is derived from its root's, spans are
serialized on read, and the store merges and evicts finished traces
when it is next read, not when they finish.  A trace nobody looks at
therefore never mints an id or builds a dict.

The current span travels in a :mod:`contextvars` variable, so it is
isolated per thread *and* per asyncio task.  When no trace is active,
:func:`maybe_span` costs one context-variable read and returns a shared
null context — near-zero, which is what lets the chase hot path stay
instrumented unconditionally.

Nothing in a finished trace refers back into it: spans link only to
their parent and root, and a root lets go of its span list when it
hands it to the store.  A trace therefore lives exactly as long as the
store (or the slow log) keeps it, and is freed by reference counting
when evicted.  A child opened from a context copied before its root
finished (an asyncio task spawned inside the trace) is timed as usual
but recorded nowhere.

Outlier capture: a root span slower than the tracer's
``slow_op_threshold_s`` is copied — full span tree included — into the
:class:`SlowOpLog`, so "why was *that* request slow" is answerable after
the fact without re-running anything.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict, deque
from itertools import count
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.clock import monotonic, wall_time
from repro.obs.metrics import get_registry

__all__ = [
    "Span",
    "SlowOpLog",
    "TraceStore",
    "Tracer",
    "current_span",
    "get_tracer",
    "maybe_span",
    "new_span_id",
    "new_trace_id",
]


# Trace and span ids must be unique across every process whose spans can
# land in one store (a coordinator absorbs its nodes' spans, and the store
# deduplicates by span id) — but an ``os.urandom`` syscall per id is
# measurable on the chase hot path (benchmark E20).  A random per-process
# prefix plus a process-local counter gives the same 32-hex-char trace id
# and 16-hex-char span id shapes at the cost of one ``next()``.
def _seed_ids() -> None:
    # Also run in a forked worker, which inherits the parent's prefixes
    # *and* counter states; without fresh prefixes two pool workers would
    # mint identical ids.
    global _TRACE_ID_PREFIX, _TRACE_ID_COUNTER, _SPAN_ID_PREFIX, _SPAN_ID_COUNTER
    _TRACE_ID_PREFIX = os.urandom(8).hex()
    _TRACE_ID_COUNTER = count(1)
    _SPAN_ID_PREFIX = os.urandom(4).hex()
    _SPAN_ID_COUNTER = count(1)


_seed_ids()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_seed_ids)


def new_trace_id() -> str:
    return (f"{_TRACE_ID_PREFIX}"
            f"{next(_TRACE_ID_COUNTER) & 0xFFFFFFFFFFFFFFFF:016x}")


def new_span_id() -> str:
    return f"{_SPAN_ID_PREFIX}{next(_SPAN_ID_COUNTER) & 0xFFFFFFFF:08x}"


class Span:
    """One timed phase of one trace, and the context manager that times it.

    A *root* span (:meth:`Tracer.start_trace`) is one process's view of a
    trace: it holds the trace's span list (``_sink``, itself first), the
    tracer's per-trace span cap, read once, and the count of children
    the cap dropped, and hands the finished list to its tracer on exit.
    A *child* (:func:`maybe_span`) links to its parent span and root; a
    root's ``_root`` is ``None``, read as the root itself.  Those two
    functions build spans, setting the fields in place (one call per
    span on the request path); a span starts when it is built and ends
    when its ``with`` block exits, so build it in the ``with``
    statement.

    A finished span keeps its fields and its links to its parent and
    root: its context-variable token is dropped on exit, and a finished
    root's span list is held by the store and the slow log, not by the
    root.

    What only a reader needs is worked out when first read: ``span_id``
    and a root's unadopted ``trace_id`` are minted then, under a lock so
    racing readers agree, ``parent_id`` is the parent's ``span_id``, and
    a child's wall-clock ``start_s`` is the root's plus the child's
    monotonic offset from it.
    """

    __slots__ = ("name", "tags", "duration_s", "_root", "_parent",
                 "_span_id", "_start_mono", "_token",
                 # Root spans only:
                 "_trace_id", "_start_s", "_tracer", "_sink", "_cap",
                 "_dropped")

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.duration_s = monotonic() - self._start_mono
        _CURRENT.reset(self._token)
        self._token = None
        if self._root is None:
            self._tracer._finish_trace(self)
        return False

    @property
    def trace_id(self) -> str:
        root = self._root or self
        if root._trace_id is None:
            with _MINT_LOCK:
                if root._trace_id is None:
                    root._trace_id = new_trace_id()
        return root._trace_id

    @property
    def span_id(self) -> str:
        if self._span_id is None:
            with _MINT_LOCK:
                if self._span_id is None:
                    self._span_id = new_span_id()
        return self._span_id

    @property
    def parent_id(self) -> Optional[str]:
        parent = self._parent
        return parent.span_id if isinstance(parent, Span) else parent

    @property
    def start_s(self) -> float:
        """Epoch seconds at which the span started."""
        root = self._root or self
        return root._start_s + (self._start_mono - root._start_mono)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": (round(self.duration_s, 9)
                           if self.duration_s is not None else None),
            "tags": dict(self.tags),
        }


class _NullSpanContext:
    """The shared no-trace fast path: enters to ``None``, does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()
_CURRENT: "ContextVar[Optional[Span]]" = ContextVar("repro_obs_span",
                                                    default=None)
_MINT_LOCK = threading.Lock()
_new_span = object.__new__


def current_span() -> Optional[Span]:
    return _CURRENT.get()


def maybe_span(name: str, **tags: Any) -> Any:
    """A child span of the current trace, or a shared no-op when untraced.

    The only cost outside a trace is this contextvar read — the guard
    that keeps permanent instrumentation off the benchmarks' backs.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NULL_SPAN_CONTEXT
    span = _new_span(Span)
    span.name = name
    span.tags = tags
    span.duration_s = None
    span._span_id = None
    span._parent = parent
    span._root = root = parent._root or parent
    sink = root._sink
    if sink is not None and len(sink) < root._cap:
        sink.append(span)
    else:
        root._dropped += 1
    span._start_mono = monotonic()
    return span


#: A stored span: this process's own finished :class:`Span`, or the dict
#: form of one absorbed from another process.
StoredSpan = Union[Span, Dict[str, Any]]


def _span_dict(span: StoredSpan) -> Dict[str, Any]:
    return span.as_dict() if isinstance(span, Span) else span


def _span_id(span: StoredSpan) -> Optional[str]:
    return span.span_id if isinstance(span, Span) else span.get("span_id")


class TraceStore:
    """A bounded, insertion-ordered map of finished traces.

    Spans arriving for a trace already present (a node's spans absorbed
    after the coordinator's own, a retried request reusing its id) are
    merged onto it; the oldest traces fall off the end.  This process's
    own spans are kept as finished :class:`Span` objects and serialized
    only when read, so recording a trace costs no per-span conversion.

    :meth:`record` only queues the spans; every read folds the queue in
    first, in order, under the store's lock, as does a :meth:`record`
    that finds ``max_traces`` entries queued.  A finished request thus
    pays one ``deque.append``, and the merging and eviction run when the
    store is read.
    """

    def __init__(self, max_traces: int = 512):
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[StoredSpan]]" = OrderedDict()
        self._pending: "deque[Tuple[Optional[str], Sequence[StoredSpan]]]" = (
            deque())

    def record(self, trace_id: Optional[str],
               spans: Sequence[StoredSpan]) -> None:
        """Queue ``spans`` for ``trace_id``.

        ``None`` stands for the trace of ``spans[0]``, a finished root of
        this process, whose id is read (and, if unadopted, minted) only
        when the queue is folded.
        """
        pending = self._pending
        pending.append((trace_id, spans))
        if len(pending) >= self._max_traces:
            with self._lock:
                self._fold_pending()

    def _fold_pending(self) -> None:
        # The caller holds the lock, so only one thread pops at a time.
        pending, traces = self._pending, self._traces
        while pending:
            trace_id, spans = pending.popleft()
            if not spans:
                continue
            if trace_id is None:
                trace_id = spans[0].trace_id
            existing = traces.get(trace_id)
            if existing is None:
                traces[trace_id] = list(spans)
            else:
                known = {_span_id(span) for span in existing}
                existing.extend(span for span in spans
                                if _span_id(span) not in known)
                traces.move_to_end(trace_id)
            if len(traces) > self._max_traces:
                traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        with self._lock:
            self._fold_pending()
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            spans = list(spans)
        return [_span_dict(span) for span in spans]

    def recent(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Newest-first summaries: trace id, root name, duration, span count."""
        with self._lock:
            self._fold_pending()
            items = [(trace_id, list(spans)) for trace_id, spans
                     in list(self._traces.items())[-max(0, limit):]]
        summaries = []
        for trace_id, stored in reversed(items):
            spans = [_span_dict(span) for span in stored]
            root = next((span for span in spans if not span.get("parent_id")),
                        spans[0] if spans else None)
            summaries.append({
                "trace_id": trace_id,
                "root": root.get("name") if root else None,
                "duration_s": root.get("duration_s") if root else None,
                "spans": len(spans),
            })
        return summaries

    def __len__(self) -> int:
        with self._lock:
            self._fold_pending()
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._traces.clear()


class SlowOpLog:
    """The last ``max_entries`` root spans that crossed the threshold.

    ``threshold_s=None`` disables capture.  Each entry keeps the full
    span tree as it stood when the root finished, so the outlier's
    per-phase breakdown survives ring-buffer eviction in the store.
    """

    def __init__(self, threshold_s: Optional[float] = None,
                 max_entries: int = 64):
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._entries: "deque[Dict[str, Any]]" = deque(maxlen=max_entries)

    def offer(self, root: Span, spans: Sequence[StoredSpan]) -> None:
        threshold = self.threshold_s
        if (threshold is None or root.duration_s is None
                or root.duration_s < threshold):
            return
        entry = {
            "trace_id": root.trace_id,
            "name": root.name,
            "start_s": round(root.start_s, 6),
            "duration_s": round(root.duration_s, 9),
            "threshold_s": threshold,
            "spans": [_span_dict(span) for span in spans],
        }
        with self._lock:
            self._entries.append(entry)
        get_registry().counter(
            "repro_slow_ops_total",
            "Root spans that exceeded the slow-op threshold.",
            labels=("name",)).inc(name=root.name)

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            entries = list(self._entries)
        entries.reverse()  # newest first
        return entries[:limit] if limit is not None else entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class Tracer:
    """One process's tracing state: current-span plumbing, store, slow log."""

    def __init__(self, max_spans_per_trace: int = 512,
                 store: Optional[TraceStore] = None,
                 slow_log: Optional[SlowOpLog] = None):
        self.max_spans_per_trace = max_spans_per_trace
        self.store = store if store is not None else TraceStore()
        self.slow_log = slow_log if slow_log is not None else SlowOpLog()

    def start_trace(self, name: str, trace_id: Optional[str] = None,
                    parent_id: Optional[str] = None, **tags: Any) -> Span:
        """A root span to enter (a trace id is minted unless adopted)."""
        root = _new_span(Span)
        root.name = name
        root.tags = tags
        root.duration_s = None
        root._span_id = None
        # A root's parent is a span of another process, known by id only.
        root._parent = parent_id
        root._root = None
        root._trace_id = trace_id
        root._tracer = self
        root._sink = [root]
        root._cap = self.max_spans_per_trace
        root._dropped = 0
        root._start_s = wall_time()
        root._start_mono = monotonic()
        return root

    def _finish_trace(self, root: Span) -> None:
        sink = root._sink
        if root._dropped:
            root.tags["spans_dropped"] = root._dropped
        self.store.record(None, sink)
        self.slow_log.offer(root, sink)
        # The store holds the list now; a root that kept it too would
        # close a cycle through its children's ``_root`` links.
        root._sink = None

    def absorb(self, trace_id: str, spans: List[Dict[str, Any]]) -> None:
        """Merge spans serialized by another process into this store."""
        self.store.record(trace_id, [span for span in spans
                                     if isinstance(span, dict)])


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the service and fleet layers share."""
    return _TRACER
