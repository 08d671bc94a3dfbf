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
via the ``obs.trace`` protocol op (spans are serialized when read, so a
trace nobody looks at never pays for it); a worker additionally returns its
serialized spans in the response envelope when the context asked to
``collect``, which is how a coordinator absorbs a node's spans into its
own store — one ``obs.trace`` lookup at the coordinator then shows the
whole cross-process tree.

The current span travels in a :mod:`contextvars` variable, so it is
isolated per thread *and* per asyncio task.  When no trace is active,
:func:`maybe_span` costs one context-variable read and returns a shared
null context — near-zero, which is what lets the chase hot path stay
instrumented unconditionally.

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
from typing import Any, Dict, List, Optional, Sequence, Union

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
    """One timed phase of one trace; children reference it by ``span_id``."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s",
                 "duration_s", "tags", "_root", "_sink", "_dropped",
                 "_start_mono")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, tags: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = wall_time()
        self._start_mono = monotonic()
        self.duration_s: Optional[float] = None
        self.tags: Dict[str, Any] = tags if tags is not None else {}
        self._root: "Span" = self
        self._sink: Optional[List["Span"]] = None
        self._dropped = 0

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = monotonic() - self._start_mono

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


def current_span() -> Optional[Span]:
    return _CURRENT.get()


class _SpanContext:
    """Context manager for one child span under an active trace."""

    __slots__ = ("_parent", "_name", "_tags", "_span", "_token")

    def __init__(self, parent: Span, name: str, tags: Dict[str, Any]):
        self._parent = parent
        self._name = name
        self._tags = tags

    def __enter__(self) -> Optional[Span]:
        root = self._parent._root
        span = Span(root.trace_id, new_span_id(), self._parent.span_id,
                    self._name, self._tags)
        span._root = root
        sink = root._sink
        if sink is not None and len(sink) < get_tracer().max_spans_per_trace:
            sink.append(span)
        else:
            root._dropped += 1
        self._span = span
        self._token = _CURRENT.set(span)
        return span

    def __exit__(self, *exc_info: Any) -> bool:
        _CURRENT.reset(self._token)
        self._span.finish()
        return False


def maybe_span(name: str, **tags: Any) -> Any:
    """A child span of the current trace, or a shared no-op when untraced.

    The only cost outside a trace is this contextvar read — the guard
    that keeps permanent instrumentation off the benchmarks' backs.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NULL_SPAN_CONTEXT
    return _SpanContext(parent, name, tags)


class _TraceContext:
    """Context manager for a root span (one process's view of a trace)."""

    __slots__ = ("_tracer", "_name", "_trace_id", "_parent_id", "_tags",
                 "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: Optional[str],
                 parent_id: Optional[str], tags: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._parent_id = parent_id
        self._tags = tags

    def __enter__(self) -> Span:
        span = Span(self._trace_id or new_trace_id(), new_span_id(),
                    self._parent_id, self._name, self._tags)
        span._sink = [span]
        self._span = span
        self._token = _CURRENT.set(span)
        return span

    def __exit__(self, *exc_info: Any) -> bool:
        _CURRENT.reset(self._token)
        self._span.finish()
        self._tracer._finish_trace(self._span)
        return False


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
    """

    def __init__(self, max_traces: int = 512):
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[StoredSpan]]" = OrderedDict()

    def record(self, trace_id: str, spans: Sequence[StoredSpan]) -> None:
        if not spans:
            return
        with self._lock:
            existing = self._traces.get(trace_id)
            if existing is None:
                self._traces[trace_id] = list(spans)
            else:
                known = {_span_id(span) for span in existing}
                existing.extend(span for span in spans
                                if _span_id(span) not in known)
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self._max_traces:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            spans = list(spans)
        return [_span_dict(span) for span in spans]

    def recent(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Newest-first summaries: trace id, root name, duration, span count."""
        with self._lock:
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
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
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
                    parent_id: Optional[str] = None,
                    **tags: Any) -> _TraceContext:
        """Open a root span (minting a trace id unless adopting one)."""
        return _TraceContext(self, name, trace_id, parent_id, tags)

    def _finish_trace(self, root: Span) -> None:
        sink = root._sink or [root]
        if root._dropped:
            root.tags["spans_dropped"] = root._dropped
        self.store.record(root.trace_id, sink)
        self.slow_log.offer(root, sink)

    def absorb(self, trace_id: str, spans: List[Dict[str, Any]]) -> None:
        """Merge spans serialized by another process into this store."""
        self.store.record(trace_id, [span for span in spans
                                     if isinstance(span, dict)])


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the service and fleet layers share."""
    return _TRACER
