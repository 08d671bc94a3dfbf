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

This module deliberately imports nothing from ``repro.chase``,
``repro.api`` or ``repro.views``: counting objects arrive duck-typed,
which keeps the dependency arrow pointing from the engines *into* obs
and never back.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
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
    """The standard probe: every hook lands in the metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._requests = registry.counter(
            "repro_requests_total",
            "Solver requests by operation and cache outcome.",
            labels=("op", "cache_hit"))
        self._request_seconds = registry.histogram(
            "repro_request_seconds",
            "Solver request latency by operation.",
            labels=("op",))
        self._chase_runs = registry.counter(
            "repro_chase_runs_total",
            "Chase executions by engine and outcome.",
            labels=("engine", "outcome"))
        self._chase_seconds = registry.histogram(
            "repro_chase_seconds",
            "Chase wall-clock seconds by engine.",
            labels=("engine",))
        self._chase_conjuncts = registry.histogram(
            "repro_chase_conjuncts",
            "Live conjuncts per finished chase.",
            labels=(), buckets=DEFAULT_SIZE_BUCKETS)
        self._chase_work = _WorkFamily(
            registry, "repro_chase_work_total",
            "Chase work by ChaseStatistics counter; units differ by kind, "
            "so select one kind and never sum across kinds.")
        self._hom_searches = registry.counter(
            "repro_homomorphism_searches_total",
            "Homomorphism searches by whether a solution was found.",
            labels=("found",))
        self._rewrite_work = _WorkFamily(
            registry, "repro_rewrite_work_total",
            "Rewrite search work by RewriteReport counter; units differ "
            "by kind, so select one kind and never sum across kinds.")
        # Hot-path children: label resolution is paid once here (or on
        # first sight of a new label combination), not per event — the
        # probe rides inside every chase and request (benchmark E20).
        self._request_children: dict = {}
        self._chase_children: dict = {}
        self._chase_conjuncts_series = self._chase_conjuncts.labels()
        self._hom_children = {
            found: self._hom_searches.labels(found=found)
            for found in ("true", "false")}

    def request(self, op: str, elapsed_s: float,
                cache_hit: Optional[bool]) -> None:
        hit = _CACHE_HIT_LABELS.get(cache_hit, "n/a")
        children = self._request_children.get((op, hit))
        if children is None:
            children = self._request_children[(op, hit)] = (
                self._requests.labels(op=op, cache_hit=hit),
                self._request_seconds.labels(op=op))
        children[0].inc()
        children[1].observe(elapsed_s)

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        outcome = ("failed" if failed
                   else "saturated" if saturated else "truncated")
        children = self._chase_children.get((engine, outcome))
        if children is None:
            children = self._chase_children[(engine, outcome)] = (
                self._chase_runs.labels(engine=engine, outcome=outcome),
                self._chase_seconds.labels(engine=engine))
        children[0].inc()
        children[1].observe(elapsed_s)
        self._chase_conjuncts_series.observe(conjuncts)
        self._chase_work.add(statistics)

    def homomorphism(self, atoms: int, found: int) -> None:
        self._hom_children["true" if found else "false"].inc()

    def rewrite(self, report: Any) -> None:
        self._rewrite_work.add(report)


class _WorkFamily:
    """A ``{kind}``-labelled counter family fed by one counting class.

    The children are resolved from the first reported object's
    ``COUNTERS`` and reused while later objects carry the same
    declaration, so an event costs one ``add_counts`` call: no label
    lookup, no dict.
    """

    def __init__(self, registry: MetricsRegistry, name: str, help_text: str):
        self._registry = registry
        self._family = registry.counter(name, help_text, labels=("kind",))
        self._resolved = (None, ())

    def add(self, counting: Any) -> None:
        declared, children = self._resolved
        if declared is not counting.COUNTERS:
            declared = counting.COUNTERS
            children = tuple(self._family.labels(kind=kind) for kind in declared)
            # One assignment, so a concurrent event reads a matching pair.
            self._resolved = (declared, children)
        self._registry.add_counts(children, counting.counts())
