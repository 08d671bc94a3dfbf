"""A process-wide metrics registry: counters, gauges, histograms.

The shape follows the Prometheus client-library data model, cut down to
what the solver stack needs:

* three instrument kinds — :class:`Counter` (monotone), :class:`Gauge`
  (set/inc/dec), :class:`Histogram` (fixed buckets, cumulative counts,
  sum and count) — each a *family* keyed by a fixed tuple of label
  names, with one time series per distinct label-value combination;
* one :class:`MetricsRegistry` per process, exposed two ways —
  :meth:`~MetricsRegistry.render_prometheus` (text exposition format,
  scrapeable verbatim) and :meth:`~MetricsRegistry.snapshot` (a JSON
  document the ``obs.metrics`` protocol op returns).

All mutation goes through one registry lock, so thread-pooled shards and
``solve_many`` workers sharing a process cannot lose increments.
Process-pool shards each carry their *own* registry (a child process is
a new process); the service front end therefore answers ``obs.metrics``
from the process that serves it, which is the front end's.

Events the engines report through :class:`~repro.obs.probe.MetricsProbe`
are not applied when they happen: the probe appends each one, as a
tuple of label values and numbers, to its registry's queue, and the
registry folds the queue into its series under the lock whenever it or
one of its instruments is read (:meth:`~MetricsRegistry.snapshot`,
:meth:`~MetricsRegistry.render_prometheus`, :meth:`~MetricsRegistry.get`,
``value``), or when the queue reaches :data:`PENDING_EVENTS`.  A request
therefore pays one ``deque.append`` per event, and label resolution and
locking run when someone looks.  Appends and pops on a ``deque`` are
atomic, so events reported while another thread folds are never lost.

Registering the same family twice returns the existing instrument (so
probes and services can be constructed repeatedly in one process), but a
kind or label-set mismatch on an existing name is a programming error
and raises.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "PENDING_EVENTS",
    "get_registry",
]

#: Latency buckets (seconds): sub-millisecond cache hits through
#: multi-second saturating chases.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size buckets (counts): conjuncts per chase, candidates per search.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Queued events at which the reporting thread folds its registry's queue
#: itself, so an unread registry holds a bounded backlog.
PENDING_EVENTS = 512

#: One queued event: the function that folds it, then its label values
#: and numbers.  The fold function receives the whole tuple.
Event = Tuple[Any, ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ReproError):
    """A metric was declared or used inconsistently."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """One metric family: a name, a help string, fixed label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Tuple[str, ...], registry: "MetricsRegistry"):
        self.name = name
        self.help_text = help_text
        self.label_names = label_names
        self._registry = registry
        self._lock = registry._lock
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        # Hot path: a length check plus direct lookups.  (Building and
        # comparing label-name sets per observation doubled the cost of
        # every increment — see benchmark E20.)
        names = self.label_names
        if len(labels) != len(names):
            self._label_mismatch(labels)
        try:
            return tuple(str(labels[name]) for name in names)
        except KeyError:
            self._label_mismatch(labels)

    def _label_mismatch(self, labels: Dict[str, Any]) -> None:
        raise MetricError(
            f"metric {self.name!r} takes labels {self.label_names}, "
            f"got {tuple(sorted(labels))}")

    def _series_snapshot(self) -> List[Dict[str, Any]]:
        rows = []
        for key in sorted(self._series):
            rows.append({"labels": dict(zip(self.label_names, key)),
                         "value": self._series[key]})
        return rows

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            self._registry._fold_pending()
            return {"kind": self.kind, "help": self.help_text,
                    "labels": list(self.label_names),
                    "series": self._series_snapshot()}

    def _label_suffix(self, key: Tuple[str, ...],
                      extra: Sequence[Tuple[str, str]] = ()) -> str:
        pairs = [f'{name}="{_escape_label_value(value)}"'
                 for name, value in zip(self.label_names, key)]
        pairs.extend(f'{name}="{_escape_label_value(value)}"'
                     for name, value in extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            self._registry._fold_pending()
            for key in sorted(self._series):
                lines.append(f"{self.name}{self._label_suffix(key)} "
                             f"{_format_value(self._series[key])}")
        return lines


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._add(key, amount)

    def _add(self, key: Tuple[str, ...], amount: float) -> None:
        # The caller holds the lock and has resolved the labels.
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        self._series[key] = self._series.get(key, 0) + amount

    def _add_counts(self, kinds: Sequence[str],
                    amounts: Sequence[float]) -> None:
        """Add ``amounts[i]`` to the ``{kind=kinds[i]}`` series, skipping zeros.

        For a one-label family fed by a counting object's ``COUNTERS``
        and ``counts()``; the caller holds the lock.
        """
        for kind, amount in zip(kinds, amounts):
            if amount:
                self._add((kind,), amount)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            self._registry._fold_pending()
            return self._series.get(key, 0)


class Gauge(_Instrument):
    """A value that goes up and down (in-flight requests, ring sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = value

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            self._registry._fold_pending()
            return self._series.get(key, 0)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count  # one per bound, + the +Inf slot
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative Prometheus exposition."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Tuple[str, ...], registry: "MetricsRegistry",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help_text, label_names, registry)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        self.bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._observe(key, value)

    def _series_at(self, key: Tuple[str, ...]) -> _HistogramSeries:
        # The caller holds the lock and has resolved the labels.
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
        return series

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        series = self._series_at(key)
        # bisect_left finds the first bound >= value, which is exactly
        # Prometheus's ``value <= le`` bucket; past the last bound it
        # returns len(bounds), the +Inf slot.
        series.bucket_counts[bisect_left(self.bounds, value)] += 1
        series.sum += value
        series.count += 1

    def _series_snapshot(self) -> List[Dict[str, Any]]:
        rows = []
        for key in sorted(self._series):
            series = self._series[key]
            cumulative, buckets = 0, {}
            for bound, count in zip(self.bounds, series.bucket_counts):
                cumulative += count
                buckets[_format_value(bound)] = cumulative
            buckets["+Inf"] = series.count
            rows.append({"labels": dict(zip(self.label_names, key)),
                         "buckets": buckets,
                         "sum": round(series.sum, 9),
                         "count": series.count})
        return rows

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} histogram"]
        with self._lock:
            self._registry._fold_pending()
            for key in sorted(self._series):
                series = self._series[key]
                cumulative = 0
                for bound, count in zip(self.bounds, series.bucket_counts):
                    cumulative += count
                    suffix = self._label_suffix(key, [("le", _format_value(bound))])
                    lines.append(f"{self.name}_bucket{suffix} {cumulative}")
                suffix = self._label_suffix(key, [("le", "+Inf")])
                lines.append(f"{self.name}_bucket{suffix} {series.count}")
                lines.append(f"{self.name}_sum{self._label_suffix(key)} "
                             f"{_format_value(round(series.sum, 9))}")
                lines.append(f"{self.name}_count{self._label_suffix(key)} "
                             f"{series.count}")
        return lines


class MetricsRegistry:
    """All of one process's metric families, under one lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}
        #: Probe events not yet folded into their series (see the module
        #: docstring).  Reporters append, then call :meth:`fold` once
        #: :data:`PENDING_EVENTS` are queued; folds pop under the lock
        #: and call ``event[0](event)``, which may touch series directly.
        self._pending: "deque[Event]" = deque()

    def _register(self, cls, name: str, help_text: str,
                  labels: Sequence[str], **kwargs) -> _Instrument:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(
                    f"invalid label name {label!r} on metric {name!r}")
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != label_names:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}")
                return existing
            instrument = cls(name, help_text, label_names, self, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help_text, labels,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            self._fold_pending()
            return self._instruments.get(name)

    def fold(self) -> None:
        """Fold every queued event into its series now."""
        with self._lock:
            self._fold_pending()

    def _fold_pending(self) -> None:
        # The caller holds the lock, so only one thread pops at a time.
        pending = self._pending
        while pending:
            event = pending.popleft()
            event[0](event)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """Every family with every series, JSON-ready (the ``obs.metrics`` body)."""
        with self._lock:
            self._fold_pending()
            instruments = dict(self._instruments)
        return {name: instruments[name].snapshot() for name in sorted(instruments)}

    def render_prometheus(self) -> str:
        """The text exposition format, one family after another."""
        with self._lock:
            self._fold_pending()
            instruments = dict(self._instruments)
        lines: List[str] = []
        for name in sorted(instruments):
            lines.extend(instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every series and queued event (families stay) — for tests."""
        with self._lock:
            self._pending.clear()
            for instrument in self._instruments.values():
                instrument._series.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every probe and service reports into."""
    return _REGISTRY
