"""Differential test: rewrite certification against its reference.

The reference below is the previous view search, kept verbatim: it
certified each candidate with two containment decisions through the
solver's answer caches (``Solver._decide``), forward and backward.  The
production search (``Solver._certify``) decides the forward direction on
fresh chases of the expansion, outside those caches, and proves the
backward direction with one homomorphism search into the matching chase
it has already built; a candidate whose search finds nothing stays
unproved.

Reports must be identical: counters, truncation, the rewritings and their
order, each rewriting's forward result, and the answer and witness of its
backward result (whose method and chase size now describe the matching
chase, also for Σ = ∅ and FD-only Σ, which the reference decided by
Chandra–Merlin and by the FD chase).  Every forward-certified candidate
has a witness in the matching chase, so no candidate the reference
certified is lost.  The one difference allowed goes the other way: where
an explicit ``level_bound``, or a conjunct budget smaller than the
matching chase, stopped the old backward decision before the witness's
level, the production search certifies a candidate the reference left
unproved — the witness is still a proof.  ``EXTRA_CERTIFIED`` lists
every such case in the corpus.
"""

from __future__ import annotations

import contextlib
import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import pytest

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseVariant
from repro.dependencies.dependency_set import DependencyClass, DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.exceptions import QueryError, ViewError
from repro.obs.clock import Stopwatch
from repro.parser import parse_query, parse_schema, parse_views
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.service import ServiceLimits
from repro.terms.term import Term
from repro.views import ViewCatalog
from repro.views.cost import CostModel, default_cost
from repro.views.expansion import expand_query
from repro.views.registry import resolve_rewriter_name
from repro.views.rewriting import (
    _REWRITERS,
    RewriteReport,
    Rewriting,
    _is_safe,
    _observed,
    _search,
    find_view_images,
    match_level,
)
from repro.workloads import (
    DependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    ViewCatalogGenerator,
)
from repro.workloads.paper_examples import intro_example, intro_example_key_based

# -- the reference search (verbatim) ------------------------------------------


def _reference_search(query: ConjunctiveQuery, catalog: ViewCatalog,
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
    from repro.chase.engine import ChaseConfig

    sigma = dependencies if dependencies is not None else DependencySet()
    ranking = cost_model if cost_model is not None else default_cost
    if catalog.base_schema is not None and catalog.base_schema != query.input_schema:
        raise ViewError(
            f"query {query.name} is not over the catalog's base schema")
    rewriter = _REWRITERS[resolve_rewriter_name(config.rewrite_strategy)]()
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

    images, truncated, views_skipped = find_view_images(
        selected_views, chase_atoms, base_labels, config.rewrite_max_images)
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
        # ``config`` itself, not the legacy-keyword ``is_contained``:
        # that takes the fields it has no keyword for (engine,
        # termination certification, level cap) from the session.
        forward, _ = session._decide(expansion, query, sigma, config)
        if not (forward.certain and forward.holds):
            continue
        backward, _ = session._decide(query, expansion, sigma, config)
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


# -- the corpus ---------------------------------------------------------------

Case = Tuple[str, ConjunctiveQuery, ViewCatalog, DependencySet]


def _catalog(schema: DatabaseSchema, lines: List[str]) -> ViewCatalog:
    return parse_views("\n".join(lines), schema)


def _intro_cases() -> List[Case]:
    cases = []
    for label, example in (("intro", intro_example()),
                           ("intro-key", intro_example_key_based())):
        catalog = _catalog(example.schema, [
            "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)",
            "EMPS(e, d) :- EMP(e, s, d)",
            "LOCS(d, l) :- DEP(d, l)",
        ])
        for query in (example.q1, example.q2):
            cases.append((f"{label}:{query.name}", query, catalog,
                          example.dependencies))
    return cases


def _edited(lines: List[str], schema: DatabaseSchema, rng: random.Random,
            name: str, pinned: int) -> List[str]:
    """The next version: one view removed, or a one-atom view added."""
    lines = list(lines)
    if rng.random() < 0.5 and len(lines) > pinned + 1:
        del lines[rng.randrange(pinned, len(lines))]
    else:
        relation = schema.relation(rng.choice(schema.relation_names))
        kept = rng.randrange(1, relation.arity + 1)
        terms = [f"h{i}" if i < kept else f"n{i}" for i in range(relation.arity)]
        lines.append(f"{name}({', '.join(terms[:kept])}) :- "
                     f"{relation.name}({', '.join(terms)})")
    return lines


def _lav_cases(seed: int, versions: int = 3, per_version: int = 2) -> List[Case]:
    """A key-based LAV tenant, rewritten across one-view catalog edits."""
    schema = SchemaGenerator(seed=seed).uniform(6, 3, prefix=f"F{seed}R")
    sigma = DependencyGenerator(schema, seed=seed).key_based(3)
    generator = ViewCatalogGenerator(schema, seed=seed)
    lines = [str(view) for view in generator.lav_catalog(24, sigma)]
    pinned = len(generator.key_join_collapses(sigma, prefix="VLK"))
    chains = QueryGenerator(schema, seed=0)
    rng = random.Random(seed)
    cases = []
    for version in range(versions):
        catalog = _catalog(schema, lines)
        for serial in range(per_version):
            relations = rng.sample(schema.relation_names, rng.choice((3, 4)))
            query = chains.chain(len(relations), relation_names=relations,
                                 name="Q")
            cases.append((f"lav{seed}:v{version}:{serial}", query, catalog, sigma))
        lines = _edited(lines, schema, rng, f"VX{version}", pinned)
    return cases


def _shape_cases(seed: int) -> List[Case]:
    """Chain projections, key-join collapses and star collapses."""
    schema = SchemaGenerator(seed=seed).uniform(5, 3)
    sigma = DependencyGenerator(schema, seed=seed).key_based(3)
    generator = ViewCatalogGenerator(schema, seed=seed)
    names = schema.relation_names
    catalog = ViewCatalog(schema=schema)
    for view in (generator.chain_projections()
                 + generator.key_join_collapses(sigma)
                 + generator.star_collapses(names[0], names[1:3])):
        catalog.add(view)
    queries = QueryGenerator(schema, seed=seed + 100)
    return [(f"shape{seed}:{query.name}", query, catalog, sigma)
            for query in (queries.chain(3, name="Qc3"),
                          queries.chain(4, name="Qc4"),
                          queries.star(names[0], names[1:3], name="Qs"),
                          queries.random(3, name="Qr3"))]


def _general_cases() -> List[Case]:
    """General FD/IND Σ: weakly acyclic (certifiable) and cyclic (not)."""
    cases = []
    base = intro_example()
    acyclic = DependencySet([
        FunctionalDependency("EMP", ["sal"], "dept"),
        InclusionDependency("EMP", ["dept"], "DEP", ["dept"]),
    ], schema=base.schema)
    catalog = _catalog(base.schema, [
        "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)",
        "EMPS(e, d) :- EMP(e, s, d)",
    ])
    for query in (base.q1, base.q2):
        cases.append((f"general-acyclic:{query.name}", query, catalog, acyclic))
    schema = parse_schema("R(a, b)\nS(a, b)")
    cyclic = DependencySet([
        InclusionDependency("R", ["b"], "R", ["a"]),
        FunctionalDependency("R", ["b"], "a"),
        InclusionDependency("S", ["b"], "R", ["a"]),
    ], schema=schema)
    catalog = _catalog(schema, ["V(x, y) :- R(x, y), R(y, z)",
                                "W(x) :- S(x, y), R(y, z)",
                                "P(x, y) :- R(x, y)"])
    for text in ("Q(x) :- R(x, y)", "Q(x) :- S(x, y)",
                 "Q(x, y) :- R(x, y), R(y, z)"):
        cases.append((f"general-cyclic:{text}", parse_query(text, schema),
                      catalog, cyclic))
    return cases


def _weaker_sigma_cases() -> List[Case]:
    """Σ = ∅ and the FD part of a key-based Σ over the same catalogs."""
    cases = []
    for name, query, catalog, sigma in _intro_cases() + _shape_cases(3):
        cases.append((f"{name}|empty", query, catalog, DependencySet()))
        cases.append((f"{name}|fd", query, catalog, sigma.fd_part()))
    return cases


DEFAULT_CORPUS: List[Case] = (
    _intro_cases() + _lav_cases(41) + _lav_cases(43) + _shape_cases(3)
    + _shape_cases(4) + _weaker_sigma_cases())

#: The corpus the tight budgets run on.
TIGHT_CORPUS: List[Case] = _intro_cases() + _general_cases() + _shape_cases(3)

#: (case, config label, rewriting): every candidate the production search
#: certifies and the reference left unproved.  Each uses a key-join view
#: whose atom holds level-1 nulls of the matching chase; a 3-conjunct
#: budget stops the old backward decision's chase before level 1.
EXTRA_CERTIFIED: Set[Tuple[str, str, str]] = {
    ("shape3:Qc3", "max_conjuncts=3", rewriting) for rewriting in (
        "Qc3_views(x0, x3) :- VC1(x0, x2), VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R3(x2, x3, z3_2)",
        "Qc3_views(x0, x3) :- VC2(x1, x3), VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x0, x1, z1_2)",
        "Qc3_views(x0, x3) :- VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x0, x1, z1_2), R3(x2, x3, z3_2)",
    )
} | {
    ("shape3:Qc4", "max_conjuncts=3", rewriting) for rewriting in (
        "Qc4_views(x0, x4) :- VC1(x0, x2), VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R3(x2, x3, z3_2), R4(x3, x4, z4_2)",
        "Qc4_views(x0, x4) :- VC1(x0, x2), VK3(x3, x4, z4_2, n2@n3.a2#L1, n3@n3.a3#L1), R3(x2, x3, z3_2)",
        "Qc4_views(x0, x4) :- VC2(x1, x3), VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x0, x1, z1_2), R4(x3, x4, z4_2)",
        "Qc4_views(x0, x4) :- VC2(x1, x3), VK3(x3, x4, z4_2, n2@n3.a2#L1, n3@n3.a3#L1), R1(x0, x1, z1_2)",
        "Qc4_views(x0, x4) :- VC3(x2, x4), VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x0, x1, z1_2)",
        "Qc4_views(x0, x4) :- VC3(x2, x4), VK3(x3, x4, z4_2, n2@n3.a2#L1, n3@n3.a3#L1), R1(x0, x1, z1_2), R2(x1, x2, z2_2)",
        "Qc4_views(x0, x4) :- VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x0, x1, z1_2), R3(x2, x3, z3_2), R4(x3, x4, z4_2)",
        "Qc4_views(x0, x4) :- VK1(x1, x2, z2_2, n0@n1.a2#L1, n1@n1.a3#L1), VK3(x3, x4, z4_2, n2@n3.a2#L1, n3@n3.a3#L1), R1(x0, x1, z1_2), R3(x2, x3, z3_2)",
        "Qc4_views(x0, x4) :- VK3(x3, x4, z4_2, n2@n3.a2#L1, n3@n3.a3#L1), R1(x0, x1, z1_2), R2(x1, x2, z2_2), R3(x2, x3, z3_2)",
    )
} | {
    ("shape3:Qr3", "max_conjuncts=3", rewriting) for rewriting in (
        "Qr3_views(x1) :- VK1(x1, x1, y4, n2@n2.a2#L1, n3@n2.a3#L1), R4(y5, y1, y4), R1(y3, y5, x1)",
        "Qr3_views(x1) :- VK1(x1, x1, y4, n2@n2.a2#L1, n3@n2.a3#L1), VK3(y5, y1, y4, n0@n0.a2#L1, n1@n0.a3#L1), R1(y3, y5, x1)",
        "Qr3_views(x1) :- VK3(y5, y1, y4, n0@n0.a2#L1, n1@n0.a3#L1), R1(y3, y5, x1), R2(x1, x1, y4)",
    )
} | {
    ("shape3:Qs", "max_conjuncts=3", rewriting) for rewriting in (
        "Qs_views(x1, x2) :- VK1(x1, d1_1, d1_2, n0@n1.a2#L1, n1@n1.a3#L1), R1(x1, x2, f3), R3(x2, d2_1, d2_2)",
        "Qs_views(x1, x2) :- VS1(x1, x2, d1_1, d1_2), VK1(x1, d1_1, d1_2, n0@n1.a2#L1, n1@n1.a3#L1), R3(x2, d2_1, d2_2)",
        "Qs_views(x1, x2) :- VS2(x1, x2, d2_1, d2_2), VK1(x1, d1_1, d1_2, n0@n1.a2#L1, n1@n1.a3#L1)",
    )
}


# -- the comparison ------------------------------------------------------------


@contextlib.contextmanager
def _witness_misses():
    """Collect the forward-certified candidates the matching chase left
    without a backward witness."""
    misses: List[str] = []
    certify = Solver._certify

    def spy(self, query, query_prime, sigma, config, matching=None,
            index=None):
        result = certify(self, query, query_prime, sigma, config,
                         matching, index)
        if matching is not None and not result.holds:
            misses.append(str(query_prime))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Solver, "_certify", spy)
        yield misses


def _forward_fields(rewriting: Rewriting) -> Tuple:
    result = rewriting.forward
    return (result.holds, result.certain, result.method, result.reason,
            result.levels_built, result.chase_size, result.level_bound,
            result.homomorphism, result.certificate is None)


def _backward_fields(rewriting: Rewriting) -> Tuple:
    result = rewriting.backward
    return (result.holds, result.certain, result.homomorphism,
            result.certificate is None)


def _document(report: RewriteReport, dropped: Set[str]) -> Dict:
    document = report.as_dict()
    del document["stage_timings"]
    document["rewritings"] = [entry for entry in document["rewritings"]
                              if entry["query"] not in dropped]
    return document


def _differential(case: Case, label: str,
                  config: SolverConfig) -> Tuple[Set[Tuple[str, str, str]], int]:
    """Run both searches on ``case``; return the extra certifications and
    the number of forward-certified candidates without a witness."""
    name, query, catalog, sigma = case
    reference = _reference_search(query, catalog, sigma, Solver(), config)
    with _witness_misses() as misses:
        change = _search(query, catalog, sigma, Solver(), config)
    for rewriting in change.rewritings:
        assert rewriting.certified, (name, label, str(rewriting.query))
    old = {str(rewriting.query): rewriting for rewriting in reference.rewritings}
    new = {str(rewriting.query): rewriting for rewriting in change.rewritings}
    assert set(old) <= set(new), (
        f"{name} [{label}]: the change lost {sorted(set(old) - set(new))}")
    extra = set(new) - set(old)
    assert _document(change, extra) == _document(reference, set()), (name, label)
    for key, rewriting in old.items():
        assert _forward_fields(new[key]) == _forward_fields(rewriting), (
            name, label, key)
        assert _backward_fields(new[key]) == _backward_fields(rewriting), (
            name, label, key)
    return {(name, label, key) for key in extra}, len(misses)


def _sweep(cases: List[Case], label: str,
           config: SolverConfig) -> Tuple[Set[Tuple[str, str, str]], int]:
    extra: Set[Tuple[str, str, str]] = set()
    misses = 0
    for case in cases:
        case_extra, case_misses = _differential(case, label, config)
        extra |= case_extra
        misses += case_misses
    return extra, misses


# -- the tests -----------------------------------------------------------------


def test_corpus_shapes():
    classes = {case[3].classify(case[1].input_schema) for case in
               DEFAULT_CORPUS + _general_cases()}
    assert {DependencyClass.EMPTY, DependencyClass.FD_ONLY,
            DependencyClass.IND_ONLY, DependencyClass.KEY_BASED,
            DependencyClass.GENERAL} <= classes
    assert len({case[0] for case in DEFAULT_CORPUS}) == len(DEFAULT_CORPUS)
    # The Σ = ∅ and FD-only cases certify something to compare.
    certified = {"empty": 0, "fd": 0}
    for name, query, catalog, sigma in _weaker_sigma_cases():
        certified[name.rsplit("|", 1)[1]] += Solver().rewrite(
            query, catalog, sigma).certified
    assert min(certified.values()) > 0, certified


@pytest.mark.parametrize("engine", ["columnar", "legacy"])
@pytest.mark.parametrize("variant", [ChaseVariant.RESTRICTED,
                                     ChaseVariant.OBLIVIOUS])
@pytest.mark.parametrize("strategy", ["bucketed", "exhaustive"])
def test_default_budgets_agree_and_every_candidate_has_a_witness(
        strategy, variant, engine):
    config = SolverConfig(rewrite_strategy=strategy, variant=variant,
                          chase_engine=engine)
    extra, misses = _sweep(DEFAULT_CORPUS, "default", config)
    assert extra == set()
    assert misses == 0


@pytest.mark.parametrize("certify_termination", [True, False])
@pytest.mark.parametrize("variant", [ChaseVariant.RESTRICTED,
                                     ChaseVariant.OBLIVIOUS])
def test_general_sigma_agrees(certify_termination, variant):
    config = SolverConfig(rewrite_strategy="bucketed", variant=variant,
                          certify_termination=certify_termination)
    extra, misses = _sweep(_general_cases(), "general", config)
    assert extra == set()
    assert misses == 0


def test_served_configuration_agrees():
    # The config a service derives for a rewrite record at default limits.
    limits = ServiceLimits()
    config = SolverConfig(rewrite_strategy="bucketed").derive(
        max_conjuncts=limits.max_conjuncts,
        saturation_level_cap=limits.max_level)
    extra, misses = _sweep(DEFAULT_CORPUS + _general_cases(), "served", config)
    assert extra == set()
    assert misses == 0


def test_certificates_agree():
    config = SolverConfig(rewrite_strategy="bucketed", with_certificate=True)
    cases = _intro_cases() + _lav_cases(41, versions=1)
    extra, misses = _sweep(cases, "certificate", config)
    assert extra == set()
    assert misses == 0


@pytest.mark.parametrize("label, fields", [
    ("level_bound=1", {"level_bound": 1}),
    ("max_conjuncts=3", {"max_conjuncts": 3}),
    ("max_candidates=3", {"rewrite_max_candidates": 3}),
])
def test_tight_budgets_only_ever_certify_more(label, fields):
    config = SolverConfig(rewrite_strategy="bucketed").derive(**fields)
    extra, misses = _sweep(TIGHT_CORPUS, label, config)
    assert extra == {entry for entry in EXTRA_CERTIFIED if entry[1] == label}
    assert misses == 0
