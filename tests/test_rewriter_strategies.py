"""Tests for the staged rewriter pipeline (PR 10).

Covers the fixed strategy table, the signature-indexed
:class:`CatalogIndex`, MiniCon-style bucketed candidate generation, the
exhaustive strategy's equivalence to the seed enumeration, the seeded
bucketed-vs-exhaustive differential sweep, the symmetric-view
merged-coverage caveat under both strategies, the new report counters,
catalog-scale workload generation, and the ``repro rewrite
--strategy/--explain`` CLI surface.
"""

from __future__ import annotations

import json
from itertools import combinations

import pytest

from repro.api import Solver, SolverConfig
from repro.api.fingerprints import catalog_fingerprint
from repro.containment.equivalence import are_equivalent
from repro.exceptions import ReproError, ViewError
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.parser.view_parser import parse_views
from repro.views import (
    CatalogIndex,
    DEFAULT_REWRITE_STRATEGY,
    ExhaustiveRewriter,
    REWRITE_STRATEGIES,
    build_buckets,
    build_catalog_index,
    find_view_images,
    resolve_rewriter_name,
    rewrite_with_views,
    validate_rewriter_name,
)
from repro.views.rewriting import _REWRITERS
from repro.workloads.dependency_generator import DependencyGenerator
from repro.workloads.query_generator import QueryGenerator
from repro.workloads.schema_generator import SchemaGenerator
from repro.workloads.traffic_generator import TrafficGenerator
from repro.workloads.view_generator import ViewCatalogGenerator

INTRO_SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)"
INTRO_DEPS = "EMP[dept] <= DEP[dept]"
INTRO_VIEWS = "DEPT_EMP(e, s, d, l) :- EMP(e, s, d), DEP(d, l)"
INTRO_QUERY = "Q(e, l) :- EMP(e, s, d), DEP(d, l)"


def intro_setup():
    schema = parse_schema(INTRO_SCHEMA)
    sigma = parse_dependencies(INTRO_DEPS, schema)
    query = parse_query(INTRO_QUERY, schema)
    catalog = parse_views(INTRO_VIEWS, schema)
    return schema, sigma, query, catalog


# ---------------------------------------------------------------------------
# The fixed strategy table
# ---------------------------------------------------------------------------


class TestRewriterRegistry:
    def test_builtins_are_registered(self):
        assert REWRITE_STRATEGIES == ("exhaustive", "bucketed")
        assert set(_REWRITERS) == set(REWRITE_STRATEGIES)
        assert DEFAULT_REWRITE_STRATEGY == "exhaustive"

    def test_validate_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ViewError) as info:
            validate_rewriter_name("minicon-2001")
        # The wire transcripts pin this wording byte for byte.
        assert str(info.value) == (
            "unknown rewrite strategy 'minicon-2001'; "
            "registered strategies: bucketed, exhaustive")

    def test_viewerror_is_a_reproerror(self):
        with pytest.raises(ReproError):
            validate_rewriter_name("nope")

    def test_resolution_order(self, monkeypatch):
        # No name means the default; a named strategy is itself.  The
        # environment plays no part.
        monkeypatch.setenv("REPRO_REWRITE_STRATEGY", "bucketed")
        assert resolve_rewriter_name(None) == "exhaustive"
        for name in REWRITE_STRATEGIES:
            assert resolve_rewriter_name(name) == name
        with pytest.raises(ViewError):
            resolve_rewriter_name("not-a-strategy")

    def test_builtin_rewriters_satisfy_the_protocol(self):
        # What the pipeline reads of a rewriter, and the name it echoes
        # into every report.
        for name, rewriter_class in _REWRITERS.items():
            rewriter = rewriter_class()
            assert rewriter.strategy_name == name
            assert rewriter.views_pruned == 0
            assert callable(rewriter.select_views)
            assert callable(rewriter.candidate_combinations)

    def test_config_validates_strategy(self):
        with pytest.raises(ReproError,
                           match="registered strategies: bucketed, exhaustive$"):
            SolverConfig(rewrite_strategy="not-a-strategy")
        for name in REWRITE_STRATEGIES:
            assert SolverConfig(rewrite_strategy=name).rewrite_strategy == name

    def test_rewrite_key_resolves_strategy(self):
        default = SolverConfig().rewrite_key()
        explicit = SolverConfig(rewrite_strategy="exhaustive").rewrite_key()
        bucketed = SolverConfig(rewrite_strategy="bucketed").rewrite_key()
        assert default == explicit
        assert bucketed != default


# ---------------------------------------------------------------------------
# The catalog index
# ---------------------------------------------------------------------------


class TestCatalogIndex:
    def test_probe_prunes_views_over_absent_relations(self):
        schema = parse_schema("A(x, y)\nB(x, y)\nC(x, y)")
        catalog = parse_views(
            "VA(x, y) :- A(x, y)\nVB(x, y) :- B(x, y)\nVAB(x) :- A(x, y), B(y, z)",
            schema)
        index = build_catalog_index(catalog)
        assert len(index) == 3
        query = parse_query("Q(x) :- A(x, y)", schema)
        survivors = index.probe(query.conjuncts)
        assert survivors == {"VA"}

    def test_probe_requires_every_body_relation(self):
        schema = parse_schema("A(x, y)\nB(x, y)")
        catalog = parse_views("VAB(x) :- A(x, y), B(y, z)", schema)
        index = build_catalog_index(catalog)
        only_a = parse_query("Q(x) :- A(x, y)", schema)
        both = parse_query("Q(x) :- A(x, y), B(y, z)", schema)
        assert index.probe(only_a.conjuncts) == set()
        assert index.probe(both.conjuncts) == {"VAB"}

    def test_probe_distinguishes_arity(self):
        schema = parse_schema("A(x, y)\nAA(x, y, z)")
        catalog = parse_views("VA3(x) :- AA(x, y, z)", schema)
        index = build_catalog_index(catalog)
        query = parse_query("Q(x) :- A(x, y)", schema)
        assert index.probe(query.conjuncts) == set()

    def test_constant_pins_prune(self):
        schema = parse_schema("A(x, y)")
        catalog = parse_views("V7(x) :- A(x, 7)", schema)
        index = build_catalog_index(catalog)
        unpinned = parse_query("Q(x) :- A(x, y)", schema)
        pinned = parse_query("Q(x) :- A(x, 7)", schema)
        other = parse_query("Q(x) :- A(x, 8)", schema)
        assert index.probe(unpinned.conjuncts) == set()
        assert index.probe(pinned.conjuncts) == {"V7"}
        assert index.probe(other.conjuncts) == set()

    def test_solver_shares_one_index_per_catalog_fingerprint(self):
        schema, sigma, query, catalog = intro_setup()
        solver = Solver()
        fingerprint = catalog_fingerprint(catalog)
        first = solver.catalog_index_for(catalog, fingerprint)
        second = solver.catalog_index_for(catalog, fingerprint)
        assert first is second
        assert isinstance(first, CatalogIndex)

    def test_index_probe_sees_the_chased_canonical_form(self):
        # The intro shape: Q mentions only EMP, the view needs DEP too —
        # the IND's chase step adds the DEP atom, so probing the chase
        # atoms (not the raw query) keeps the view.
        schema, sigma, _, catalog = intro_setup()
        query = parse_query("Q2(e) :- EMP(e, s, d)", schema)
        report = rewrite_with_views(query, catalog, sigma,
                                    strategy="bucketed")
        assert report.views_pruned == 0
        assert report.rewritings  # DEPT_EMP certifies as in the paper


# ---------------------------------------------------------------------------
# Exhaustive: the seed enumeration, verbatim
# ---------------------------------------------------------------------------


class TestExhaustiveEquivalence:
    def test_candidate_enumeration_matches_the_seed_order(self):
        # The seed enumerated nested: all 1-subsets, then all 2-subsets,
        # in image order.  The flattened generator must match exactly —
        # same sequence, so the same truncation points under budgets.
        images = ["i1", "i2", "i3", "i4"]
        rewriter = ExhaustiveRewriter()
        produced = list(rewriter.candidate_combinations(images, [], (), 3))
        expected = [combo for size in (1, 2, 3)
                    for combo in combinations(images, size)]
        assert produced == expected

    def test_default_and_explicit_exhaustive_reports_are_identical(self):
        schema, sigma, query, catalog = intro_setup()
        implicit = rewrite_with_views(query, catalog, sigma)
        explicit = rewrite_with_views(query, catalog, sigma,
                                      strategy="exhaustive")
        implicit_dict = implicit.as_dict()
        explicit_dict = explicit.as_dict()
        implicit_dict.pop("stage_timings")
        explicit_dict.pop("stage_timings")
        assert implicit_dict == explicit_dict
        assert implicit.strategy == "exhaustive"

    def test_exhaustive_never_prunes_views(self):
        schema = parse_schema("A(x, y)\nB(x, y)")
        catalog = parse_views("VA(x, y) :- A(x, y)\nVB(x, y) :- B(x, y)",
                              schema)
        query = parse_query("Q(x) :- A(x, y)", schema)
        report = rewrite_with_views(query, catalog, strategy="exhaustive")
        assert report.views_pruned == 0
        bucketed = rewrite_with_views(query, catalog, strategy="bucketed")
        assert bucketed.views_pruned == 1  # VB's relation is absent


# ---------------------------------------------------------------------------
# Buckets
# ---------------------------------------------------------------------------


class TestBuckets:
    def test_buckets_map_labels_to_covering_images(self):
        schema, sigma, query, catalog = intro_setup()
        report = rewrite_with_views(query, catalog, sigma,
                                    strategy="bucketed")
        assert report.rewritings
        assert report.candidates_tried >= 1

    def test_build_buckets_shape(self):
        schema = parse_schema("A(x, y)\nB(x, y)")
        catalog = parse_views("VA(x, y) :- A(x, y)\nVB(x, y) :- B(x, y)",
                              schema)
        query = parse_query("Q(x, z) :- A(x, y), B(y, z)", schema)
        images, truncated, skipped = find_view_images(
            list(catalog), list(query.conjuncts),
            {c.label for c in query.conjuncts}, max_images=16)
        assert not truncated and not skipped
        buckets = build_buckets(images, list(query.conjuncts))
        # One bucket per covered base atom, each holding its image.
        assert len(buckets) == 2
        for positions in buckets.values():
            assert len(positions) == 1

    def test_bucketed_joins_images_for_multi_atom_queries(self):
        schema = parse_schema("A(x, y)\nB(x, y)")
        catalog = parse_views("VA(x, y) :- A(x, y)\nVB(x, y) :- B(x, y)",
                              schema)
        query = parse_query("Q(x, z) :- A(x, y), B(y, z)", schema)
        report = rewrite_with_views(query, catalog, strategy="bucketed")
        assert any(sorted(r.view_names) == ["VA", "VB"]
                   for r in report.rewritings)
        exhaustive = rewrite_with_views(query, catalog, strategy="exhaustive")
        assert {str(r.query) for r in report.rewritings} == {
            str(r.query) for r in exhaustive.rewritings}

    def test_projection_recovery_is_not_pruned(self):
        # A view with strictly-subset coverage can still be essential
        # when it exposes a projected-away join variable: VXZ covers
        # both atoms but hides y; VA exposes y again.  The bucketed
        # growth rule must therefore extend through variable overlap,
        # not only uncovered labels.
        schema = parse_schema("A(x, y)\nB(x, y)")
        catalog = parse_views(
            "VXZ(x, z) :- A(x, y), B(y, z)\nVA(x, y) :- A(x, y)", schema)
        query = parse_query("Q(x, y, z) :- A(x, y), B(y, z)", schema)
        bucketed = rewrite_with_views(query, catalog, strategy="bucketed")
        exhaustive = rewrite_with_views(query, catalog, strategy="exhaustive")
        assert {str(r.query) for r in bucketed.rewritings} == {
            str(r.query) for r in exhaustive.rewritings}
        if exhaustive.rewritings:
            assert bucketed.best.cost == exhaustive.best.cost


# ---------------------------------------------------------------------------
# The differential sweep (acceptance: bucketed certifies whenever
# exhaustive does, with the same best cost)
# ---------------------------------------------------------------------------


class TestBucketedDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_workloads_agree(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(5, 3)
        sigma = DependencyGenerator(schema, seed=seed).key_based(3)
        queries = QueryGenerator(schema, seed=seed + 100)
        catalog = ViewCatalogGenerator(schema, seed=seed).catalog(5, sigma)
        for query in (queries.chain(3, name="Qc3"),
                      queries.chain(4, name="Qc4"),
                      queries.random(3, name="Qr3")):
            self._assert_agreement(query, catalog, sigma, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_lav_catalogs_agree(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(6, 3)
        sigma = DependencyGenerator(schema, seed=seed).key_based(3)
        queries = QueryGenerator(schema, seed=seed + 7)
        catalog = ViewCatalogGenerator(schema, seed=seed).lav_catalog(40, sigma)
        for query in (queries.chain(2, name="Ql2"),
                      queries.chain(3, name="Ql3")):
            self._assert_agreement(query, catalog, sigma, seed)

    @staticmethod
    def _assert_agreement(query, catalog, sigma, seed):
        # Budgets generous enough that neither strategy truncates —
        # truncation points legitimately differ once pruning changes
        # which images exist.
        exhaustive = rewrite_with_views(query, catalog, sigma,
                                        strategy="exhaustive",
                                        max_images=256, max_candidates=1024)
        bucketed = rewrite_with_views(query, catalog, sigma,
                                      strategy="bucketed",
                                      max_images=256, max_candidates=1024)
        assert not exhaustive.search_truncated
        if exhaustive.rewritings:
            assert bucketed.rewritings, (
                f"seed {seed}: bucketed missed every rewriting of "
                f"{query.name} that exhaustive certified")
            assert bucketed.best.cost == exhaustive.best.cost, (
                f"seed {seed}: best-cost mismatch on {query.name}")
            for rewriting in bucketed.rewritings:
                assert are_equivalent(rewriting.expansion, query, sigma,
                                      solver=Solver())


# ---------------------------------------------------------------------------
# Satellite 3: the symmetric-view merged-coverage caveat
# ---------------------------------------------------------------------------


class TestSymmetricMergedCoverage:
    """``find_view_images`` merges images with identical view atoms and
    unions their coverage; certification then rejects over-reaching
    unions without enumerating the per-homomorphism sub-candidates.
    Both strategies must agree on the behaviour either way.
    """

    def test_merged_coverage_that_certifies(self):
        # Two homomorphisms of V's body land on the same head terms
        # (x→a twice), so one image covers both E-atoms.  Replacing
        # both is sound here: E(a, b), E(a, c) minimises to one atom.
        schema = parse_schema("E(s, t)")
        catalog = parse_views("V(x) :- E(x, y)", schema)
        query = parse_query("Q(a) :- E(a, b), E(a, c)", schema)
        images, truncated, skipped = find_view_images(
            list(catalog), list(query.conjuncts),
            {c.label for c in query.conjuncts}, max_images=16)
        assert not truncated and not skipped
        assert len(images) == 1
        assert len(images[0].covered_labels) == 2
        for strategy in ("exhaustive", "bucketed"):
            report = rewrite_with_views(query, catalog, strategy=strategy)
            assert [str(r.query) for r in report.rewritings] == [
                "Q_views(a) :- V(a)"], strategy

    def test_overreaching_union_is_skipped_not_split(self):
        # The merged image covers both E-atoms but V's head exposes only
        # ``a`` — the head variable ``b`` vanishes, so the union
        # candidate fails the safety check.  The per-homomorphism
        # sub-candidate covering only E(a, c) is *not* enumerated — the
        # documented completeness trade — and both strategies agree: no
        # rewriting, and the skip is counted (exhaustive at safety
        # filtering, bucketed during growth).
        schema = parse_schema("E(s, t)")
        catalog = parse_views("V(x) :- E(x, y)", schema)
        query = parse_query("Q(a, b) :- E(a, b), E(a, c)", schema)
        images, truncated, skipped = find_view_images(
            list(catalog), list(query.conjuncts),
            {c.label for c in query.conjuncts}, max_images=16)
        assert not truncated and not skipped
        assert len(images) == 1  # one merged image, not one per match
        reports = {
            strategy: rewrite_with_views(query, catalog, strategy=strategy)
            for strategy in ("exhaustive", "bucketed")}
        for strategy, report in reports.items():
            assert not report.rewritings, strategy
            assert report.candidates_skipped_unsafe >= 1, strategy
        assert (reports["exhaustive"].as_dict()["rewritings"]
                == reports["bucketed"].as_dict()["rewritings"])


# ---------------------------------------------------------------------------
# Report counters (satellites 1 and 2)
# ---------------------------------------------------------------------------


class TestReportCounters:
    def test_image_cap_records_skipped_views(self):
        schema = parse_schema("A(x, y)")
        views_text = "\n".join(
            f"V{i}(x, y) :- A(x, y)" for i in range(1, 6))
        catalog = parse_views(views_text, schema)
        query = parse_query("Q(x) :- A(x, y)", schema)
        report = rewrite_with_views(query, catalog, max_images=2)
        assert report.search_truncated
        # V1 and V2 produced the two admitted images; V3 hit the cap,
        # so V4 and V5 were never scanned — and are named, not dropped.
        assert report.views_skipped == ["V4", "V5"]
        assert "image cap" in report.describe()
        assert report.as_dict()["views_skipped"] == ["V4", "V5"]

    def test_counters_serialize_and_describe(self):
        schema, sigma, query, catalog = intro_setup()
        report = rewrite_with_views(query, catalog, sigma,
                                    strategy="bucketed")
        document = report.as_dict()
        for key in ("strategy", "views_pruned", "views_skipped",
                    "candidates_skipped_unsafe", "candidates_deduped",
                    "stage_timings"):
            assert key in document, key
        assert document["strategy"] == "bucketed"
        json.dumps(document)  # nothing unserializable leaked in

    def test_stage_timings_cover_the_pipeline(self):
        schema, sigma, query, catalog = intro_setup()
        report = rewrite_with_views(query, catalog, sigma)
        assert set(report.stage_timings) == {
            "chase", "index_probe", "image_discovery",
            "candidate_generation", "certification", "ranking"}
        assert all(value >= 0 for value in report.stage_timings.values())


# ---------------------------------------------------------------------------
# Catalog-scale workloads
# ---------------------------------------------------------------------------


class TestCatalogScaleWorkloads:
    def test_lav_catalog_size_and_distinct_names(self):
        schema = SchemaGenerator(seed=3).uniform(8, 3)
        catalog = ViewCatalogGenerator(schema, seed=3).lav_catalog(200)
        names = [view.name for view in catalog]
        assert len(names) == 200
        assert len(set(names)) == 200

    def test_lav_catalog_round_trips_through_the_parser(self):
        schema = SchemaGenerator(seed=4).uniform(6, 3)
        sigma = DependencyGenerator(schema, seed=4).key_based(2)
        catalog = ViewCatalogGenerator(schema, seed=4).lav_catalog(60, sigma)
        schema_text = "\n".join(
            f"{relation.name}({', '.join(relation.attribute_names)})"
            for relation in schema)
        views_text = "\n".join(str(view) for view in catalog)
        reparsed = parse_views(views_text, parse_schema(schema_text))
        assert catalog_fingerprint(reparsed) == catalog_fingerprint(catalog)

    def test_lav_catalog_is_deterministic(self):
        schema = SchemaGenerator(seed=5).uniform(5, 3)
        first = ViewCatalogGenerator(schema, seed=5).lav_catalog(100)
        second = ViewCatalogGenerator(schema, seed=5).lav_catalog(100)
        assert catalog_fingerprint(first) == catalog_fingerprint(second)

    def test_lav_catalog_rejects_bad_size(self):
        schema = SchemaGenerator(seed=0).uniform(3, 2)
        with pytest.raises(ValueError):
            ViewCatalogGenerator(schema, seed=0).lav_catalog(0)

    def test_traffic_catalog_registrations_and_requests(self):
        traffic = TrafficGenerator(tenant_count=3, seed=9)
        registrations = traffic.catalog_registrations()
        assert len(registrations) == 3
        assert all(record["op"] == "catalog.put" for record in registrations)
        requests = traffic.catalog_requests(10, strategy="bucketed")
        assert len(requests) == 10
        fingerprints = {record["catalog_fp"] for record in requests}
        known = {traffic.tenant_catalog_fp(tenant)
                 for tenant in traffic.tenants}
        assert fingerprints <= known
        assert all(record["strategy"] == "bucketed" for record in requests)
        assert all("views" not in record for record in requests)
        # Determinism: same seed, same stream.
        assert requests == TrafficGenerator(
            tenant_count=3, seed=9).catalog_requests(10, strategy="bucketed")


# ---------------------------------------------------------------------------
# CLI: --strategy and --explain
# ---------------------------------------------------------------------------


class TestRewriteCLIStrategy:
    def run_cli(self, capsys, *extra):
        from repro.cli import main
        code = main(["rewrite",
                     "--schema", INTRO_SCHEMA, "--deps", INTRO_DEPS,
                     "--query", INTRO_QUERY, "--views", INTRO_VIEWS,
                     *extra])
        return code, capsys.readouterr().out

    def test_strategy_flag_selects_the_rewriter(self, capsys):
        code, out = self.run_cli(capsys, "--strategy", "bucketed", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["strategy"] == "bucketed"

    def test_explain_prints_stage_timings(self, capsys):
        code, out = self.run_cli(capsys, "--strategy", "bucketed", "--explain")
        assert code == 0
        assert "pipeline (bucketed):" in out
        for stage in ("chase", "index_probe", "image_discovery",
                      "candidate_generation", "certification", "ranking"):
            assert stage in out

    def test_strategy_choices_are_the_fixed_strategies(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["rewrite", "--help"])
        choices = "{" + ",".join(REWRITE_STRATEGIES) + "}"
        assert f"--strategy {choices}" in capsys.readouterr().out

    def test_unknown_strategy_is_an_argparse_error(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["rewrite", "--schema", INTRO_SCHEMA, "--deps", INTRO_DEPS,
                  "--query", INTRO_QUERY, "--views", INTRO_VIEWS,
                  "--strategy", "nope"])
