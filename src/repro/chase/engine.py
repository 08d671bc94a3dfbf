"""The chase: O-chase and R-chase with FDs and INDs (Section 3).

Every engine follows the paper's construction procedure:

1. while there is an applicable FD, apply the lexicographically first
   applicable FD to the lexicographically first applicable pair of
   conjuncts (the FD chase rule);
2. if some conjuncts have applicable (O-chase) or required (R-chase)
   INDs, apply the lexicographically first such IND to the
   lexicographically first such conjunct of minimum level (the IND chase
   rule), creating a new conjunct at level + 1 whose non-copied columns
   hold fresh NDVs named by the paper's encoding scheme;
3. repeat until nothing is applicable (saturation) or a budget is hit.

Because IND chases can be infinite (Figure 1), the engine is always run
with a budget: a maximum level (Theorem 2's bound when deciding
containment), a maximum number of conjuncts, or a maximum step count.
The result records whether the chase *saturated* (it is the complete,
finite chase) or was *truncated* (it is a prefix of a larger, possibly
infinite, chase).

This module holds what every engine shares — the configuration and
result types, the FD rule's merge policy (:func:`resolve_merge`), the
run instrumentation — and :func:`build_engine`, which constructs one of
the two implementations :mod:`repro.chase.registry` names:

* :class:`~repro.chase.columnar.ColumnarChaseEngine` (the default,
  ``engine="columnar"``) is the production engine: an interned-integer
  core with incrementally maintained, delta-driven indexes, running off
  a plan compiled once per (Σ, schema) and memoised on the
  :class:`~repro.dependencies.dependency_set.DependencySet`.
* :class:`~repro.chase.legacy_engine.LegacyChaseEngine`
  (``engine="legacy"``) is the seed implementation: pairwise FD scans and
  full index rebuilds after every FD application.  It is kept as the
  semantic reference the differential test harness certifies the
  columnar engine against.

Both follow the identical deterministic policy — minimum level,
lexicographically first conjunct, lexicographically first dependency —
so their results agree node for node, not merely up to isomorphism.  The
pending IND applications are kept in a heap keyed by ``(level, conjunct
id, IND index)``, which realises the paper's selection rule.

On FD-only Σ the chase is the classical Maier–Mendelzon–Sagiv chase (the
paper's reference [11]); FD-only containment and the optimizer's FD
stage run it through :func:`build_engine` like every other chase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.chase.chase_graph import ChaseGraph
from repro.chase.events import ChaseTrace
from repro.chase.registry import engine_factory, resolve_engine_name
from repro.dependencies.dependency_set import DependencySet
from repro.exceptions import ChaseError
from repro.obs import probe as _probe
from repro.obs.clock import monotonic
from repro.obs.tracing import current_span, maybe_span
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.terms.term import Constant, Term, lexicographic_min


class ConstantClash(Exception):
    """Internal signal: the FD rule tried to merge two distinct constants."""


def resolve_merge(first: Term, second: Term) -> Tuple[Term, Term]:
    """Survivor and loser of merging two symbols under the FD chase rule.

    Raises :class:`ConstantClash` when both are distinct constants (the
    paper's "delete all conjuncts and halt" case).
    """
    if first == second:
        return first, second
    first_const = isinstance(first, Constant)
    second_const = isinstance(second, Constant)
    if first_const and second_const:
        raise ConstantClash(f"cannot merge distinct constants {first} and {second}")
    if first_const:
        return first, second
    if second_const:
        return second, first
    survivor = lexicographic_min(first, second)
    loser = second if survivor == first else first
    return survivor, loser


class ChaseVariant(Enum):
    """The two ways Section 3 applies the IND chase rule."""

    OBLIVIOUS = "O"
    RESTRICTED = "R"


@dataclass
class ChaseConfig:
    """Budgets and options for one chase run.

    ``max_level`` bounds the level of *created* conjuncts; ``None`` means
    unbounded (use together with ``max_conjuncts``).  ``max_conjuncts``
    bounds the total number of live conjuncts and always applies.
    ``record_trace`` can be switched off for large benchmark runs.
    ``engine`` names the implementation (``"columnar"`` or
    ``"legacy"``, see :mod:`repro.chase.registry`); ``None`` becomes the
    process default when the config is built.
    """

    variant: ChaseVariant = ChaseVariant.RESTRICTED
    max_level: Optional[int] = None
    max_conjuncts: int = 5_000
    max_steps: Optional[int] = None
    record_trace: bool = True
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_conjuncts <= 0:
            raise ChaseError("max_conjuncts must be positive")
        if self.max_level is not None and self.max_level < 0:
            raise ChaseError("max_level must be non-negative")
        self.engine = resolve_engine_name(self.engine)


@dataclass
class ChaseStatistics:
    """Counters reported with every chase result.

    Rule applications:

    ``fd_steps``
        FD chase rule applications (including the halting constant-clash
        one); each may cascade into several ``merged_conjuncts``.
    ``egd_steps``
        General-EGD applications (the FD rule on arbitrary bodies),
        including a halting one.
    ``ind_steps``
        IND chase rule applications that created a new conjunct.
    ``tgd_steps``
        General-TGD applications that created at least one new conjunct.
    ``redundant_ind_applications`` / ``redundant_tgd_applications``
        IND (TGD) applications that found their conjunct(s) already
        present verbatim (possible in the O-chase) and created nothing.
    ``merged_conjuncts``
        Conjuncts retired because an FD/EGD merge made them identical to
        an earlier conjunct.

    Work accounting (the columnar-vs-legacy benchmark compares these):

    ``triggers_examined``
        Candidate (dependency, conjunct) triggers the engine inspected:
        FD pair comparisons during trigger discovery, per-IND scans when
        registering a conjunct, and pending-queue entries popped.
    ``index_hits``
        Lookups answered by a persistent index instead of a scan — a
        satisfied R-chase requirement, a verbatim duplicate detected on
        IND application, or an FD determinant bucket with candidates.

    Semi-naive TGD/EGD accounting (columnar engine only; the legacy
    engine re-enumerates every body match per round and leaves these
    at zero):

    ``delta_seeded_matches``
        Body matches discovered by seeding a join from a delta node
        (one added or rewritten since the rule's last round); the
        semi-naive analogue of ``triggers_examined`` for embedded rules.
    ``trigger_cache_hits``
        Trigger re-derivations avoided by the permanent caches — a
        non-violating EGD match never re-checked, a satisfied R-chase
        head never re-joined, or an unsatisfied head skipped because
        neither its head relations nor its frontier values changed.

    Columnar-core accounting (columnar engine only; the legacy engine
    leaves these at zero):

    ``interned_terms``
        Distinct terms interned into dense integer ids over the run —
        query symbols, rule constants, and chase-created NDVs (whose
        ``Term`` objects are only materialised at the result boundary).
    ``union_find_unions`` / ``union_find_finds``
        Merges recorded in, and canonical-id lookups served by, the
        union-find that replaces node-rewrite cascades for EGD/FD
        merges.
    ``column_probes``
        Per-column inverted-index (posting-list) lookups — the probes a
        merge uses to find exactly the rows holding the merged-away id.
    """

    fd_steps: int = 0
    ind_steps: int = 0
    redundant_ind_applications: int = 0
    merged_conjuncts: int = 0
    max_level_reached: int = 0
    triggers_examined: int = 0
    index_hits: int = 0
    egd_steps: int = 0
    tgd_steps: int = 0
    redundant_tgd_applications: int = 0
    delta_seeded_matches: int = 0
    trigger_cache_hits: int = 0
    interned_terms: int = 0
    union_find_unions: int = 0
    union_find_finds: int = 0
    column_probes: int = 0

    #: Every counter above, in report order: the serialized chase
    #: document, the work-accounting table and the metrics probe iterate
    #: this.  ``max_level_reached`` is a maximum, not a count.
    COUNTERS: ClassVar[Tuple[str, ...]] = (
        "fd_steps", "ind_steps", "egd_steps", "tgd_steps",
        "redundant_ind_applications", "redundant_tgd_applications",
        "merged_conjuncts", "triggers_examined", "index_hits",
        "delta_seeded_matches", "trigger_cache_hits", "interned_terms",
        "union_find_unions", "union_find_finds", "column_probes")
    _read_counts: ClassVar = attrgetter(*COUNTERS)

    def counts(self) -> Tuple[int, ...]:
        """The values of :attr:`COUNTERS`, in the same order."""
        return self._read_counts(self)

    @property
    def total_steps(self) -> int:
        """Every chase rule application, productive or not.

        Counts FD/EGD applications and *all* IND/TGD applications —
        including the redundant ones the O-chase performs — so the
        ``max_steps`` budget and the trace agree: ``total_steps ==
        len(trace)`` whenever the trace was recorded.
        """
        return (self.fd_steps + self.egd_steps
                + self.ind_steps + self.redundant_ind_applications
                + self.tgd_steps + self.redundant_tgd_applications)

    @property
    def ind_applications(self) -> int:
        """IND rule applications, whether or not they created a conjunct."""
        return self.ind_steps + self.redundant_ind_applications

    @property
    def tgd_applications(self) -> int:
        """General-TGD applications, whether or not they created conjuncts."""
        return self.tgd_steps + self.redundant_tgd_applications

    @property
    def triggers_fired(self) -> int:
        """Examined triggers that led to an actual rule application."""
        return self.total_steps


@dataclass
class ChaseResult:
    """Outcome of a chase run.

    Results may be shared across calls by a solver's chase cache (the
    module-level :func:`chase` serves them), so treat a result — graph,
    statistics, and trace included — as immutable once returned;
    ``build_engine(...).run()`` gives a private, fresh run.

    ``failed`` means an FD application tried to merge two distinct
    constants; following the paper, the chased query is then the empty
    query (no conjuncts), which returns the empty answer on every database
    obeying Σ.  ``saturated`` means no dependency is applicable to the
    result — it *is* the complete chase.  ``truncated`` means some
    application was skipped because of the level/size budget — the result
    is a prefix of a larger (possibly infinite) chase.
    """

    query: ConjunctiveQuery
    variant: ChaseVariant
    graph: ChaseGraph
    summary_row: Tuple[Term, ...]
    failed: bool
    saturated: bool
    truncated: bool
    statistics: ChaseStatistics
    trace: ChaseTrace
    #: True when the run stopped because of the conjunct (size) budget, as
    #: opposed to the level budget; containment uses this to distinguish
    #: "exact up to the Theorem 2 level bound" from "ran out of memory".
    hit_conjunct_budget: bool = False
    #: Which registered implementation built this result ("columnar" or
    #: "legacy").
    engine: str = "columnar"
    #: On a failed chase: the FD or EGD whose application clashed two
    #: distinct constants (its ``str`` form), and how many conjuncts were
    #: live at that moment — the prefix the containment report surfaces.
    failure_dependency: Optional[str] = None
    failure_live_conjuncts: int = 0

    def conjuncts(self) -> List[Conjunct]:
        """The live conjuncts of the (partial) chase, in creation order."""
        if self.failed:
            return []
        return self.graph.conjuncts()

    def __len__(self) -> int:
        return 0 if self.failed else len(self.graph)

    def max_level(self) -> int:
        return self.graph.max_level() if not self.failed else 0

    def level_histogram(self) -> Dict[int, int]:
        return self.graph.level_histogram() if not self.failed else {}

    def conjuncts_up_to_level(self, level: int) -> List[Conjunct]:
        """Live conjuncts whose level does not exceed ``level``."""
        if self.failed:
            return []
        return [node.conjunct for node in self.graph if node.level <= level]

    def as_query(self, name: Optional[str] = None) -> ConjunctiveQuery:
        """The chase viewed as a conjunctive query (only if not failed)."""
        if self.failed:
            raise ChaseError(
                "the chase failed on a constant clash; the chased query is empty "
                "and cannot be represented as a ConjunctiveQuery"
            )
        return ConjunctiveQuery(
            input_schema=self.query.input_schema,
            conjuncts=self.conjuncts(),
            summary_row=self.summary_row,
            output_attributes=self.query.output_attributes,
            name=name or f"chase({self.query.name})",
        )

    def describe(self) -> str:
        """Readable report: status line plus the level-by-level graph."""
        status = "failed" if self.failed else (
            "saturated" if self.saturated else "truncated")
        stats = self.statistics
        counters = (
            f"{stats.fd_steps} FD steps, {stats.ind_steps} IND steps"
        )
        if stats.redundant_ind_applications:
            counters += f" (+{stats.redundant_ind_applications} redundant)"
        if stats.egd_steps or stats.tgd_steps or stats.redundant_tgd_applications:
            counters += f", {stats.egd_steps} EGD steps, {stats.tgd_steps} TGD steps"
            if stats.redundant_tgd_applications:
                counters += f" (+{stats.redundant_tgd_applications} redundant)"
        if stats.merged_conjuncts:
            counters += f", {stats.merged_conjuncts} merged conjuncts"
        header = (
            f"{self.variant.value}-chase of {self.query.name}: {status}, "
            f"{len(self)} conjuncts, max level {self.max_level()}, "
            f"{counters}"
        )
        if self.failed:
            return header
        return header + "\n" + self.graph.describe()


def run_with_instrumentation(engine) -> ChaseResult:
    """Run an engine's ``_run``, reporting to the probe and current trace.

    Shared by both built-in engines so their ``run()`` methods stay
    one-liners.  The disabled path is two attribute/contextvar reads and
    a direct call — no timing, no span allocation — which is what keeps
    uninstrumented benchmarks at parity (the E20 guard measures this).
    """
    probe = _probe.ACTIVE
    if probe is None and current_span() is None:
        return engine._run()
    started = monotonic()
    with maybe_span("chase.run") as span:
        if span is not None:
            span.tags["engine"] = engine.engine_name
        result = engine._run()
        elapsed = monotonic() - started
        conjuncts = len(result)
        if span is not None:
            stats = result.statistics
            span.tags.update(
                conjuncts=conjuncts,
                max_level=result.max_level(),
                total_steps=stats.total_steps,
                triggers_examined=stats.triggers_examined,
                outcome=("failed" if result.failed
                         else "saturated" if result.saturated else "truncated"),
            )
    if probe is not None:
        probe.chase(engine.engine_name, elapsed, result.statistics,
                    conjuncts, result.saturated, result.failed)
    return result


def build_engine(query: ConjunctiveQuery, dependencies: DependencySet,
                 config: Optional[ChaseConfig] = None):
    """Instantiate the engine ``config`` names (the process default without one)."""
    config = config or ChaseConfig()
    return engine_factory(config.engine)(query, dependencies, config)


# -- module-level convenience functions ---------------------------------------------------------


def chase(query: ConjunctiveQuery, dependencies: DependencySet,
          config: Optional[ChaseConfig] = None) -> ChaseResult:
    """Chase ``query`` with respect to ``dependencies`` under ``config``.

    Thin wrapper over the process-wide default
    :class:`~repro.api.solver.Solver`: identical (query, Σ, config)
    requests are served from its chase cache.  Call
    :func:`build_engine` and ``run()`` it to force a fresh, uncached run.
    """
    from repro.api.solver import get_default_solver
    return get_default_solver().chase(query, dependencies, config)


def r_chase(query: ConjunctiveQuery, dependencies: DependencySet,
            max_level: Optional[int] = None, max_conjuncts: int = 5_000,
            record_trace: bool = True) -> ChaseResult:
    """The R-chase ("required" applications only), bounded by the given budgets."""
    config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=max_level,
                         max_conjuncts=max_conjuncts, record_trace=record_trace)
    return chase(query, dependencies, config)


def o_chase(query: ConjunctiveQuery, dependencies: DependencySet,
            max_level: Optional[int] = None, max_conjuncts: int = 5_000,
            record_trace: bool = True) -> ChaseResult:
    """The O-chase ("oblivious": one application per applicable conjunct/IND pair)."""
    config = ChaseConfig(variant=ChaseVariant.OBLIVIOUS, max_level=max_level,
                         max_conjuncts=max_conjuncts, record_trace=record_trace)
    return chase(query, dependencies, config)
