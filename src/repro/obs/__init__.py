"""repro.obs — metrics, tracing, probes, and profiling for the solver stack.

The four pieces and how they meet the rest of the tree:

* :mod:`repro.obs.metrics` — the process-wide registry (counters,
  gauges, fixed-bucket histograms; Prometheus text + JSON snapshot).
* :mod:`repro.obs.tracing` — ``trace_id``/``span_id`` spans carried
  through the NDJSON protocol, a ring-buffer trace store, and the
  slow-op log.
* :mod:`repro.obs.probe` — the one-attribute-check hook the chase
  engines, homomorphism search, rewrite path, and solver report into;
  :class:`~repro.obs.probe.MetricsProbe` lands it all in the registry.
* :mod:`repro.obs.profiler` — a runtime-togglable sampling wall-clock
  profiler.

Everything is disabled-by-default at the library level: importing
``repro`` installs no probe, and untraced code pays one pointer or
contextvar read per instrumented site.  The service and fleet front
ends call :func:`ensure_default_probe` at construction — running a
server is opting into being observable.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict

from repro.obs import probe as _probe
from repro.obs.clock import Stopwatch, monotonic, wall_time
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.probe import MetricsProbe, Probe, install, uninstall
from repro.obs.profiler import SamplingProfiler, get_profiler
from repro.obs.tracing import (
    SlowOpLog,
    Span,
    TraceStore,
    Tracer,
    current_span,
    get_tracer,
    maybe_span,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsProbe",
    "MetricsRegistry",
    "Probe",
    "SamplingProfiler",
    "SlowOpLog",
    "Span",
    "Stopwatch",
    "TraceStore",
    "Tracer",
    "current_span",
    "ensure_default_probe",
    "get_profiler",
    "get_registry",
    "get_tracer",
    "health",
    "install",
    "maybe_span",
    "monotonic",
    "new_span_id",
    "new_trace_id",
    "uninstall",
    "wall_time",
]

_STARTED_AT = wall_time()
_STARTED_MONO = monotonic()


def ensure_default_probe() -> Probe:
    """Install a :class:`MetricsProbe` unless a probe is already active.

    Idempotent and cheap, so every service/coordinator constructor can
    call it; an explicitly installed custom probe is never displaced.
    """
    probe = _probe.ACTIVE
    if probe is None:
        probe = install(MetricsProbe())
    return probe


def health() -> Dict[str, Any]:
    """The ``obs.health`` body: process identity plus obs subsystem state."""
    tracer = get_tracer()
    profiler = get_profiler()
    return {
        "pid": os.getpid(),
        "python": sys.version.split()[0],
        "started_at": round(_STARTED_AT, 3),
        "uptime_s": round(monotonic() - _STARTED_MONO, 3),
        "probe": type(_probe.ACTIVE).__name__ if _probe.ACTIVE else None,
        "tracer": {
            "traces_stored": len(tracer.store),
            "slow_op_threshold_s": tracer.slow_log.threshold_s,
            "max_spans_per_trace": tracer.max_spans_per_trace,
        },
        "profiler": {
            "running": profiler.running,
            "interval_s": profiler.interval_s,
        },
        "metrics_families": len(get_registry().names()),
    }
