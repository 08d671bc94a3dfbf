"""The engine instrumentation hook: a probe the hot paths report into.

:class:`Probe` is both the interface and the no-op base.  The chase
engines, the homomorphism search, the rewrite path, and the solver's
request surface each call the **module-global** :data:`ACTIVE` probe —
guarded by a single ``is None`` attribute check, so an uninstrumented
process pays one pointer read per reporting site and nothing else.

The default :class:`MetricsProbe` folds the engines' existing
counting objects (:class:`~repro.chase.engine.ChaseStatistics`,
:class:`~repro.views.rewriting.RewriteReport`, solver response fields)
into the process metrics registry rather than keeping parallel
counters: each counting class declares its counters once (``COUNTERS``,
read by ``counts()``) and becomes one ``{kind}``-labelled family.
Probes receive *end-of-run* summaries, never per-trigger callbacks —
the grain at which reporting cannot distort what it measures.

Reporting is a queue append.  A hook appends one tuple of label values
and numbers (for a counting object, its ``COUNTERS`` and ``counts()``,
never the object) to the registry's queue, and the registry folds the
queue into its series when it is read or when the queue reaches
:data:`~repro.obs.metrics.PENDING_EVENTS` (see :mod:`repro.obs.metrics`).
Label resolution and locking thus run when metrics are read, off the
request path, and a fresh probe costs a request nothing more than a
warm one.

This module deliberately imports nothing from ``repro.chase``,
``repro.api`` or ``repro.views``: counting objects arrive duck-typed,
which keeps the dependency arrow pointing from the engines *into* obs
and never back.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    PENDING_EVENTS,
    Event,
    MetricsRegistry,
    get_registry,
)

__all__ = ["Probe", "MetricsProbe", "ACTIVE", "active", "install", "uninstall"]

_CACHE_HIT_LABELS = {True: "true", False: "false"}


class Probe:
    """No-op base; override any subset of the reporting hooks."""

    def request(self, op: str, elapsed_s: float,
                cache_hit: Optional[bool]) -> None:
        """One solver request finished (containment/chase/optimize/rewrite)."""

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        """One chase run finished; ``statistics`` is its ChaseStatistics."""

    def homomorphism(self, atoms: int, found: int) -> None:
        """One homomorphism search was exhausted or abandoned."""

    def rewrite(self, report: Any) -> None:
        """One chase & backchase rewrite search finished; ``report`` is its RewriteReport."""


#: The installed probe, or ``None`` (the near-zero disabled state).
#: Reporting sites read this once per event: ``probe = ACTIVE`` /
#: ``if probe is not None: probe.chase(...)``.
ACTIVE: Optional[Probe] = None


def active() -> Optional[Probe]:
    return ACTIVE


def install(probe: Optional[Probe] = None) -> Probe:
    """Install (and return) a probe; default is a fresh :class:`MetricsProbe`."""
    global ACTIVE
    ACTIVE = probe if probe is not None else MetricsProbe()
    return ACTIVE


def uninstall() -> Optional[Probe]:
    """Remove the active probe, returning it (for later reinstall)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


class MetricsProbe(Probe):
    """The standard probe: every hook queues one event on the registry.

    A hook appends a tuple of label values and numbers and returns; the
    registry folds the queue into :class:`_ProbeFamilies` when it is
    read (see :mod:`repro.obs.metrics`).  Work counters are queued as
    their ``COUNTERS`` declaration and ``counts()`` values, so a pending
    event holds no ChaseStatistics or RewriteReport, and the queue holds
    the families, not the probe.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        families = _ProbeFamilies(registry)
        self._pending = registry._pending
        self._fold_request = families.request
        self._fold_chase = families.chase
        self._fold_homomorphism = families.homomorphism
        self._fold_rewrite = families.rewrite

    # Each hook appends to the registry's queue itself: hooks run inside
    # every request, and a shared helper would add a call per event.

    def request(self, op: str, elapsed_s: float,
                cache_hit: Optional[bool]) -> None:
        pending = self._pending
        pending.append((self._fold_request, op, elapsed_s, cache_hit))
        if len(pending) >= PENDING_EVENTS:
            self.registry.fold()

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        pending = self._pending
        pending.append((self._fold_chase, engine, elapsed_s,
                        statistics.COUNTERS, statistics.counts(), conjuncts,
                        saturated, failed))
        if len(pending) >= PENDING_EVENTS:
            self.registry.fold()

    def homomorphism(self, atoms: int, found: int) -> None:
        pending = self._pending
        pending.append((self._fold_homomorphism, found))
        if len(pending) >= PENDING_EVENTS:
            self.registry.fold()

    def rewrite(self, report: Any) -> None:
        pending = self._pending
        pending.append((self._fold_rewrite, report.COUNTERS, report.counts()))
        if len(pending) >= PENDING_EVENTS:
            self.registry.fold()


class _ProbeFamilies:
    """The probe's eight metric families, and how each event folds into them.

    The fold methods run under the registry lock, where they resolve
    label values to series keys.  A ``{kind}``-labelled work family
    takes its kinds from the ``COUNTERS`` each event carries, skipping
    zero counts.
    """

    def __init__(self, registry: MetricsRegistry):
        self.requests = registry.counter(
            "repro_requests_total",
            "Solver requests by operation and cache outcome.",
            labels=("op", "cache_hit"))
        self.request_seconds = registry.histogram(
            "repro_request_seconds",
            "Solver request latency by operation.",
            labels=("op",))
        self.chase_runs = registry.counter(
            "repro_chase_runs_total",
            "Chase executions by engine and outcome.",
            labels=("engine", "outcome"))
        self.chase_seconds = registry.histogram(
            "repro_chase_seconds",
            "Chase wall-clock seconds by engine.",
            labels=("engine",))
        self.chase_conjuncts = registry.histogram(
            "repro_chase_conjuncts",
            "Live conjuncts per finished chase.",
            labels=(), buckets=DEFAULT_SIZE_BUCKETS)
        self.chase_work = registry.counter(
            "repro_chase_work_total",
            "Chase work by ChaseStatistics counter; units differ by kind, "
            "so select one kind and never sum across kinds.",
            labels=("kind",))
        self.hom_searches = registry.counter(
            "repro_homomorphism_searches_total",
            "Homomorphism searches by whether a solution was found.",
            labels=("found",))
        self.rewrite_work = registry.counter(
            "repro_rewrite_work_total",
            "Rewrite search work by RewriteReport counter; units differ "
            "by kind, so select one kind and never sum across kinds.",
            labels=("kind",))
        # The label-free family has one series, present (empty) from the
        # start, so a scrape before the first chase still lists it.
        with registry._lock:
            self.chase_conjuncts._series_at(())

    def request(self, event: Event) -> None:
        _, op, elapsed_s, cache_hit = event
        self.requests._add((op, _CACHE_HIT_LABELS.get(cache_hit, "n/a")), 1.0)
        self.request_seconds._observe((op,), elapsed_s)

    def chase(self, event: Event) -> None:
        _, engine, elapsed_s, kinds, counts, conjuncts, saturated, failed = event
        outcome = ("failed" if failed
                   else "saturated" if saturated else "truncated")
        self.chase_runs._add((engine, outcome), 1.0)
        self.chase_seconds._observe((engine,), elapsed_s)
        self.chase_conjuncts._observe((), conjuncts)
        self.chase_work._add_counts(kinds, counts)

    def homomorphism(self, event: Event) -> None:
        self.hom_searches._add(("true" if event[1] else "false",), 1.0)

    def rewrite(self, event: Event) -> None:
        self.rewrite_work._add_counts(event[1], event[2])
