"""Chase & backchase: rewriting a query to use materialized views.

The procedure is the classic two-phase search, built from the paper's own
primitives, run as a staged pipeline:

1. **Chase** — the query is chased under Σ (the solver's cached chase,
   so repeated rewrites of one workload share the work).  Chasing first
   matters: a dependency can expose a view match that is invisible in the
   query's own atoms (the intro example's ``Q2(e) :- EMP(e, s, d)``
   matches the EMP⋈DEP view only after the foreign key adds the DEP
   atom).  Because the chase has already applied Σ's FD/EGD merges, view
   matching sees the canonical form — key-merged atoms cannot hide
   coverage.
2. **Catalog index / view selection** — the active rewriter strategy
   (see :mod:`repro.views.registry`) decides which catalog views are
   worth a homomorphism search at all.  ``"exhaustive"`` tries every
   view; ``"bucketed"`` probes a :class:`~repro.views.index.CatalogIndex`
   keyed on relation signatures, so a thousand-view catalog costs only
   its handful of signature-compatible views.
3. **Image discovery** — the surviving views' defining queries are
   matched into the chase by homomorphism; the view tgds of the textbook
   backchase are applied here as one-shot match rules rather than as
   chase dependencies.
4. **Candidate generation** — the strategy turns matched images into
   candidate combinations: all subsets up to the size budget
   (exhaustive) or MiniCon-style bucket growth
   (:mod:`repro.views.buckets`).
5. **Certification and ranking** — each candidate (view atoms plus the
   uncovered base atoms) is expanded back to the base schema and kept
   exactly when it is certified equivalent to the original query under
   Σ, in both directions, with certainty, outside the solver's answer
   caches: no later request can name an expansion.  The forward
   direction (expansion ⊆ query) runs the containment procedure on
   fresh chases of the expansion.  The backward direction (query ⊆
   expansion) is already proved by construction: the images map the
   expansion into the matching chase, a prefix of chase(query), so by
   Theorem 1 one homomorphism search into that chase (through image
   discovery's target index) certifies it.  Certified rewritings are
   ranked by a :mod:`~repro.views.cost` model — by default fewest atoms,
   then fewest base-relation accesses.

Per-stage wall-clock timings land in ``RewriteReport.stage_timings``
(surfaced by ``repro rewrite --explain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Any, ClassVar, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.chase.engine import ChaseConfig
from repro.containment.result import ContainmentResult
from repro.dependencies.dependency_set import DependencySet
from repro.exceptions import QueryError, ViewError
from repro.homomorphism.problem import HomomorphismProblem, TargetIndex
from repro.homomorphism.query_homomorphism import build_target_index
from repro.homomorphism.search import iter_homomorphisms
from repro.obs import probe as _probe
from repro.obs.clock import Stopwatch
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.terms.term import Term, Variable
from repro.views.buckets import (
    BucketStatistics,
    build_buckets,
    iter_bucket_combinations,
)
from repro.views.cost import CostModel, default_cost
from repro.views.expansion import expand_query
from repro.views.view import ViewCatalog


@dataclass(frozen=True)
class ViewImage:
    """One match of a view's body into the chased query.

    ``atom`` is the view atom the match induces (the view's head under the
    homomorphism); ``covered_labels`` are the labels of the *level-0* chase
    conjuncts the body mapped onto — the atoms this image can replace.
    Matches landing only on chase-created conjuncts cover nothing and are
    discarded: they could never shrink the query.
    """

    view_name: str
    atom: Conjunct
    covered_labels: FrozenSet[str]


@dataclass
class Rewriting:
    """One certified rewriting of the original query over the views.

    ``backward`` is proved by a homomorphism into the matching chase, so
    its ``method`` is ``"bounded-chase"`` whatever Σ's class, and its
    ``levels_built`` and ``chase_size`` are that chase's.
    """

    query: ConjunctiveQuery          # over the catalog's extended schema
    expansion: ConjunctiveQuery      # the unfolding, over the base schema
    view_names: Tuple[str, ...]      # views used, in atom order
    cost: Tuple
    forward: ContainmentResult       # Σ ⊨ expansion ⊆ original
    backward: ContainmentResult      # Σ ⊨ original ⊆ expansion

    @property
    def certified(self) -> bool:
        return (self.forward.certain and self.forward.holds
                and self.backward.certain and self.backward.holds)

    def describe(self) -> str:
        views = ", ".join(self.view_names)
        return f"{self.query}   [views: {views}; cost {self.cost}]"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": str(self.query),
            "expansion": str(self.expansion),
            "views": list(self.view_names),
            "cost": list(self.cost),
            "atoms": len(self.query),
            "base_accesses": len(self.expansion),
        }


@dataclass
class RewriteReport:
    """The outcome of one chase & backchase search.

    ``rewritings`` holds every certified rewriting, best cost first.
    ``unsatisfiable`` flags the degenerate case where the chase failed on
    an FD constant clash: the query is empty on every Σ-database and the
    search is skipped.  ``search_truncated`` reports that a budget
    (``max_images`` or ``max_candidates``) cut the enumeration short, so
    an empty result is "none found within budget", not "none exists";
    ``views_skipped`` names the catalog views the image cap prevented
    from being scanned at all, so a truncated search is diagnosable.
    ``views_pruned`` counts views the strategy's catalog index rejected
    before any homomorphism search (always 0 for ``exhaustive``), and
    ``candidates_skipped_unsafe`` / ``candidates_deduped`` count the
    candidates the safety check and the dedup set swallowed — the data
    budget tuning needs.  ``stage_timings`` maps pipeline stage names to
    wall-clock seconds.
    """

    original: ConjunctiveQuery
    dependencies: DependencySet
    catalog_size: int
    rewritings: List[Rewriting] = field(default_factory=list)
    images_found: int = 0
    candidates_tried: int = 0
    unsatisfiable: bool = False
    search_truncated: bool = False
    strategy: str = "exhaustive"
    views_pruned: int = 0
    views_skipped: List[str] = field(default_factory=list)
    candidates_skipped_unsafe: int = 0
    candidates_deduped: int = 0
    stage_timings: Dict[str, float] = field(default_factory=dict)

    #: The search's work counters, in report order (the metrics probe
    #: iterates this); ``certified`` is the number of rewritings.
    COUNTERS: ClassVar[Tuple[str, ...]] = (
        "candidates_tried", "certified", "images_found", "views_pruned",
        "candidates_skipped_unsafe", "candidates_deduped")
    _read_counts: ClassVar = attrgetter(*COUNTERS)

    def counts(self) -> Tuple[int, ...]:
        """The values of :attr:`COUNTERS`, in the same order."""
        return self._read_counts(self)

    @property
    def certified(self) -> int:
        """How many candidates certified equivalent (``len(rewritings)``)."""
        return len(self.rewritings)

    @property
    def best(self) -> Optional[Rewriting]:
        """The cheapest certified rewriting, if any."""
        return self.rewritings[0] if self.rewritings else None

    def describe(self) -> str:
        lines = [
            f"rewriting {self.original.name} over {self.catalog_size} view(s): "
            f"{self.images_found} image(s), {self.candidates_tried} candidate(s), "
            f"{self.certified} certified"
        ]
        if self.unsatisfiable:
            lines.append("  query is unsatisfiable under Σ (FD constant clash)")
        if self.search_truncated:
            lines.append("  search truncated by budget")
        if self.views_skipped:
            shown = ", ".join(self.views_skipped[:8])
            more = len(self.views_skipped) - 8
            suffix = f" (+{more} more)" if more > 0 else ""
            lines.append(
                f"  image cap hit: {len(self.views_skipped)} view(s) never "
                f"scanned: {shown}{suffix}")
        if self.views_pruned:
            lines.append(
                f"  strategy {self.strategy!r} pruned {self.views_pruned} "
                "view(s) by signature before matching")
        if self.candidates_skipped_unsafe or self.candidates_deduped:
            lines.append(
                f"  candidates: {self.candidates_skipped_unsafe} skipped "
                f"unsafe, {self.candidates_deduped} deduplicated")
        for rank, rewriting in enumerate(self.rewritings, start=1):
            lines.append(f"  #{rank} {rewriting.describe()}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "original": str(self.original),
            "catalog_size": self.catalog_size,
            "images_found": self.images_found,
            "candidates_tried": self.candidates_tried,
            "unsatisfiable": self.unsatisfiable,
            "search_truncated": self.search_truncated,
            "strategy": self.strategy,
            "views_pruned": self.views_pruned,
            "views_skipped": list(self.views_skipped),
            "candidates_skipped_unsafe": self.candidates_skipped_unsafe,
            "candidates_deduped": self.candidates_deduped,
            "stage_timings": {stage: round(seconds, 6)
                              for stage, seconds in self.stage_timings.items()},
            "rewritings": [rewriting.as_dict() for rewriting in self.rewritings],
        }


# ---------------------------------------------------------------------------
# Phase 1: chase + view matching
# ---------------------------------------------------------------------------


def match_level(catalog: ViewCatalog) -> int:
    """Default chase depth for view matching.

    A view body of b atoms needs at most b chased atoms to map onto, and
    the restricted chase adds one level per IND application along a path,
    so chasing to the size of the largest body (with a floor of 2) exposes
    the matches that single foreign-key steps create.  Deeper matches are
    possible in contrived schemas; callers can raise the level explicitly.
    Memoised on the catalog until its next ``add``.
    """
    if catalog._match_level is None:
        sizes = [len(view.definition) for view in catalog]
        catalog._match_level = max([2] + sizes)
    return catalog._match_level


def find_view_images(views: Sequence,
                     chase_atoms: Sequence[Conjunct],
                     base_labels: Set[str],
                     max_images: int,
                     ) -> Tuple[List[ViewImage], bool, List[str]]:
    """All (deduplicated) matches of the given views into the chase.

    ``views`` is any iterable of :class:`~repro.views.view.View` — the
    whole catalog, or the subset a strategy's index selected.  Returns
    the images, a truncation flag, and the names of the views the image
    cap prevented from being scanned at all (hitting the cap mid-catalog
    used to abandon the remaining views silently).

    Images with identical view atoms are merged, their coverage unioned:
    each underlying homomorphism justifies replacing its own covered
    atoms, and the certification phase rejects any union that
    over-reaches.  The merge trades completeness for boundedness — when
    a rejected union hides a certifiable per-homomorphism sub-candidate
    (automorphic matches of a symmetric view body covering different
    atoms), that smaller rewriting is not enumerated; like the budget
    caps, an empty answer means "none found by this search", not "none
    exists".
    """
    return _find_images(views, build_target_index(chase_atoms), chase_atoms,
                        base_labels, max_images)


def _find_images(views: Sequence, index: TargetIndex,
                 chase_atoms: Sequence[Conjunct], base_labels: Set[str],
                 max_images: int) -> Tuple[List[ViewImage], bool, List[str]]:
    """:func:`find_view_images` against ``index``, built from ``chase_atoms``."""
    label_by_key: Dict[Tuple[str, Tuple[Term, ...]], str] = {
        (atom.relation, atom.terms): atom.label
        for atom in chase_atoms if atom.label in base_labels
    }
    merged: Dict[Tuple[str, Tuple[Term, ...]], Set[str]] = {}
    order: List[Tuple[str, Tuple[Term, ...]]] = []
    truncated = False
    capped = False
    views_skipped: List[str] = []
    view_list = list(views)
    for scan_position, view in enumerate(view_list):
        if capped:
            views_skipped = [skipped.name
                             for skipped in view_list[scan_position:]]
            break
        problem = HomomorphismProblem(view.definition.conjuncts, index)
        # Distinct homomorphisms can collapse to one image (same head
        # terms), so the enumeration gets its own per-view cap: without it
        # a view with many automorphic matches could spin without ever
        # registering a new image.
        enumeration_budget = max_images * 16
        for assignment in iter_homomorphisms(problem):
            enumeration_budget -= 1
            if enumeration_budget < 0:
                truncated = True
                break
            head_terms = tuple(assignment[variable] for variable in view.head)
            covered = set()
            for body_atom in view.definition.conjuncts:
                image_terms = tuple(
                    assignment[term] if isinstance(term, Variable) else term
                    for term in body_atom.terms
                )
                label = label_by_key.get((body_atom.relation, image_terms))
                if label is not None:
                    covered.add(label)
            if not covered:
                continue
            key = (view.name, head_terms)
            if key not in merged:
                if len(order) >= max_images:
                    truncated = True
                    capped = True
                    break
                merged[key] = covered
                order.append(key)
            else:
                merged[key] |= covered
    images = [
        ViewImage(
            view_name=view_name,
            atom=Conjunct(view_name, terms, label=f"{view_name}#{position}"),
            covered_labels=frozenset(merged[(view_name, terms)]),
        )
        for position, (view_name, terms) in enumerate(order)
    ]
    return images, truncated, views_skipped


# ---------------------------------------------------------------------------
# Candidate-generation strategies (see repro.views.registry)
# ---------------------------------------------------------------------------


class ExhaustiveRewriter:
    """The seed behaviour: match every view, try every image subset.

    The certified reference the bucketed strategy is differentially
    tested against — its enumeration order and truncation points are
    byte-identical to the original single-function search.
    """

    strategy_name = "exhaustive"

    def __init__(self) -> None:
        self.views_pruned = 0
        self.combos_pruned_unsafe = 0

    def select_views(self, catalog, chase_atoms, catalog_index):
        return list(catalog)

    def candidate_combinations(self, images, base_conjuncts, summary_row,
                               max_combination_size):
        def generate():
            for size in range(1, max_combination_size + 1):
                yield from combinations(images, size)
        return generate()


class BucketedRewriter:
    """MiniCon-style: signature-index view pruning + bucketed growth."""

    strategy_name = "bucketed"

    def __init__(self) -> None:
        self.views_pruned = 0
        self.statistics = BucketStatistics()

    @property
    def combos_pruned_unsafe(self) -> int:
        return self.statistics.combos_pruned_unsafe

    def select_views(self, catalog, chase_atoms, catalog_index):
        if catalog_index is None:
            index = catalog.index()
        elif catalog_index.indexes(catalog):
            index = catalog_index
        else:
            raise ViewError(
                "catalog_index was not built from this catalog's views; "
                "rebuild it with build_catalog_index(catalog) after the "
                "catalog changes")
        survivors = index.probe(chase_atoms)
        selected = [view for view in catalog if view.name in survivors]
        self.views_pruned = len(catalog) - len(selected)
        return selected

    def candidate_combinations(self, images, base_conjuncts, summary_row,
                               max_combination_size):
        # Buckets are built eagerly so the pipeline's stage timer sees
        # the build; only the growth enumeration is lazy.
        buckets = build_buckets(images, base_conjuncts)
        self.statistics.buckets = len(buckets)
        return iter_bucket_combinations(
            images, buckets, base_conjuncts, summary_row,
            max_combination_size, self.statistics)


#: The class behind each name in :data:`~repro.views.registry.REWRITE_STRATEGIES`.
_REWRITERS = {"exhaustive": ExhaustiveRewriter, "bucketed": BucketedRewriter}


# ---------------------------------------------------------------------------
# Phase 2: backchase
# ---------------------------------------------------------------------------


def _is_safe(conjuncts: Sequence[Conjunct], summary_row: Sequence[Term]) -> bool:
    """True if every summary-row variable occurs in some conjunct."""
    body_terms = {term for conjunct in conjuncts for term in conjunct.terms}
    return all(
        entry in body_terms
        for entry in summary_row if isinstance(entry, Variable)
    )


def rewrite_with_views(query: ConjunctiveQuery,
                       catalog: ViewCatalog,
                       dependencies: Optional[DependencySet] = None,
                       solver=None,
                       cost_model: Optional[CostModel] = None,
                       max_images: int = 64,
                       max_combination_size: int = 2,
                       max_candidates: int = 256,
                       chase_level: Optional[int] = None,
                       chase_max_conjuncts: Optional[int] = None,
                       strategy: Optional[str] = None,
                       catalog_index=None,
                       **containment_options) -> RewriteReport:
    """Chase & backchase search for view-based rewritings of ``query``.

    ``solver`` is the :class:`~repro.api.solver.Solver` that runs the
    search (``None`` uses the process-wide default).  Its chase cache
    holds the matching chase; certification runs outside the answer
    caches and counts one containment request per direction decided.
    ``cost_model`` ranks certified rewritings (default:
    :func:`~repro.views.cost.default_cost`).  The three budgets bound the
    number of view images collected, the number of view atoms per
    candidate, and the number of candidates certified; like the
    ``rewrite_*`` fields of :class:`~repro.api.config.SolverConfig` they
    stand for, they must be positive.

    ``strategy`` names one of
    :data:`~repro.views.registry.REWRITE_STRATEGIES` (``None`` is
    ``"exhaustive"``); ``catalog_index`` optionally supplies a prebuilt
    :class:`~repro.views.index.CatalogIndex` for the catalog —
    index-using strategies otherwise probe the catalog's own
    (:meth:`~repro.views.view.ViewCatalog.index`), and raise
    :class:`~repro.exceptions.ViewError` for a supplied index that was
    not built from this catalog's current views.

    ``containment_options`` are the legacy containment keywords.  Applied
    to the solver's config together with the budgets above, they govern
    every certification call and the matching chase, which also takes
    that config's engine and, unless ``chase_max_conjuncts`` is given,
    its conjunct budget.
    """
    from repro.api.solver import resolve_solver

    session = resolve_solver(solver)
    config = session.config.with_legacy_kwargs(**containment_options).derive(
        rewrite_max_images=max_images,
        rewrite_max_combination_size=max_combination_size,
        rewrite_max_candidates=max_candidates,
        rewrite_chase_level=chase_level,
        rewrite_strategy=strategy,
        chase_max_conjuncts=(chase_max_conjuncts if chase_max_conjuncts is not None
                             else session.config.chase_max_conjuncts))
    return _search(query, catalog, dependencies, session, config,
                   cost_model=cost_model, catalog_index=catalog_index)


def _search(query: ConjunctiveQuery, catalog: ViewCatalog,
            dependencies: Optional[DependencySet], session, config, *,
            cost_model: Optional[CostModel] = None,
            catalog_index=None) -> RewriteReport:
    """The search on ``session`` under the :class:`SolverConfig` ``config``.

    Budgets, matching depth and strategy come from the config's
    ``rewrite_*`` fields and ``chase_max_conjuncts`` — the fields its
    :meth:`~repro.api.config.SolverConfig.rewrite_key` records — and
    certification runs under the config itself.  The finished report
    goes to the active metrics probe.
    """
    sigma = dependencies if dependencies is not None else DependencySet()
    ranking = cost_model if cost_model is not None else default_cost
    if catalog.base_schema is not None and catalog.base_schema != query.input_schema:
        raise ViewError(
            f"query {query.name} is not over the catalog's base schema")
    rewriter = _REWRITERS[config.rewrite_strategy]()
    report = RewriteReport(original=query, dependencies=sigma,
                           catalog_size=len(catalog),
                           strategy=rewriter.strategy_name)
    if len(catalog) == 0:
        return _observed(report)

    timings = report.stage_timings
    watch = Stopwatch()
    chase_config = ChaseConfig(
        variant=config.variant,
        max_level=(config.rewrite_chase_level
                   if config.rewrite_chase_level is not None
                   else match_level(catalog)),
        max_conjuncts=config.chase_max_conjuncts,
        record_trace=False,
        engine=config.chase_engine,
    )
    chase_result = session.chase(query, sigma, chase_config)
    timings["chase"] = watch.restart()
    if chase_result.failed:
        report.unsatisfiable = True
        return _observed(report)

    # The FD-normalised original: level-0 conjuncts plus the (possibly
    # merged) summary row.  Candidates are built from these atoms so FD
    # merges performed by the chase do not mask coverage — and the
    # strategy's index probe sees the chased canonical form, so
    # EGD-implied equalities cannot hide a view either.
    base_conjuncts = chase_result.conjuncts_up_to_level(0)
    summary_row = chase_result.summary_row
    base_labels = {conjunct.label for conjunct in base_conjuncts}
    chase_atoms = list(chase_result.conjuncts())

    selected_views = rewriter.select_views(catalog, chase_atoms, catalog_index)
    report.views_pruned = rewriter.views_pruned
    timings["index_probe"] = watch.restart()

    # One index over the matching chase serves image discovery and every
    # backward certification.
    index = build_target_index(chase_atoms)
    images, truncated, views_skipped = _find_images(
        selected_views, index, chase_atoms, base_labels,
        config.rewrite_max_images)
    report.images_found = len(images)
    report.search_truncated = truncated
    report.views_skipped = views_skipped
    timings["image_discovery"] = watch.restart()
    if not images:
        return _observed(report)
    # Images covering the most atoms first: singletons that replace whole
    # joins are certified before marginal ones, so a tight candidate
    # budget still sees the best rewritings.
    images.sort(key=lambda image: (-len(image.covered_labels),
                                   image.view_name, image.atom.label))

    candidate_combinations = rewriter.candidate_combinations(
        images, base_conjuncts, summary_row, config.rewrite_max_combination_size)
    timings["candidate_generation"] = watch.restart()

    extended = catalog.extended_schema()
    seen_candidates: Set[FrozenSet[Tuple[str, Tuple[Term, ...]]]] = set()
    certified: List[Rewriting] = []
    for combo in candidate_combinations:
        if report.candidates_tried >= config.rewrite_max_candidates:
            report.search_truncated = True
            break
        covered: Set[str] = set()
        for image in combo:
            covered |= image.covered_labels
        remainder = [c for c in base_conjuncts if c.label not in covered]
        candidate_conjuncts = [image.atom for image in combo] + remainder
        candidate_key = frozenset(
            (c.relation, c.terms) for c in candidate_conjuncts)
        if candidate_key in seen_candidates:
            report.candidates_deduped += 1
            continue
        seen_candidates.add(candidate_key)
        if not _is_safe(candidate_conjuncts, summary_row):
            report.candidates_skipped_unsafe += 1
            continue
        report.candidates_tried += 1
        try:
            candidate = ConjunctiveQuery(
                input_schema=extended,
                conjuncts=candidate_conjuncts,
                summary_row=summary_row,
                output_attributes=query.output_attributes,
                name=f"{query.name}_views",
            )
            expansion = expand_query(
                candidate, catalog, name=f"{query.name}_views_expanded")
        except QueryError:
            continue
        # ``config`` itself governs both directions, engine, termination
        # certification and level cap included.
        forward = session._certify(expansion, query, sigma, config)
        if not (forward.certain and forward.holds):
            continue
        backward = session._certify(query, expansion, sigma, config,
                                    chase_result, index)
        if not (backward.certain and backward.holds):
            continue
        certified.append(Rewriting(
            query=candidate,
            expansion=expansion,
            view_names=tuple(image.view_name for image in combo),
            cost=tuple(ranking(candidate, expansion)),
            forward=forward,
            backward=backward,
        ))
    # The bucketed strategy pre-filters unsafe combinations during
    # growth; fold its count in so the report is strategy-agnostic.
    report.candidates_skipped_unsafe += getattr(
        rewriter, "combos_pruned_unsafe", 0)
    timings["certification"] = watch.restart()

    certified.sort(key=lambda rewriting: rewriting.cost)
    report.rewritings = certified
    timings["ranking"] = watch.restart()
    return _observed(report)


def _observed(report: RewriteReport) -> RewriteReport:
    """``report``, after handing it to the active metrics probe."""
    probe = _probe.ACTIVE
    if probe is not None:
        probe.rewrite(report)
    return report
