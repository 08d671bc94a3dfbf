"""Tests for ``repro.views`` — answering queries using materialized views.

Covers the subsystem's contract end to end: View/ViewCatalog validation,
expansion hygiene, the chase & backchase search on the paper's intro
example (the acceptance scenario: a certified single-atom rewriting over
a DEPT_EMP view), cost-model ranking, the Solver integration (rewrite
cache, RewriteRequest/RewriteResponse, cache_stats), the views parser and
the ``repro rewrite`` CLI, the workload generator's view shapes, and a
seeded property-based soundness sweep: every rewriting the engine returns
must be certified equivalent to the original by an independent
``are_equivalent`` call.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.api import (
    PersistentCache,
    RewriteRequest,
    Solver,
    SolverConfig,
    catalog_fingerprint,
)
from repro.cli import EXIT_NO, EXIT_YES, main
from repro.containment.equivalence import are_equivalent
from repro.exceptions import ParseError, ViewError
from repro.homomorphism.query_homomorphism import build_target_index
from repro.parser import parse_query, parse_views
from repro.views import (
    View,
    ViewCatalog,
    default_cost,
    expand_query,
    view_atoms_first,
)
from repro.workloads import (
    DependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    ViewCatalogGenerator,
)
from repro.workloads.paper_examples import intro_example, intro_example_key_based


@pytest.fixture()
def intro():
    return intro_example()


@pytest.fixture()
def dept_emp_catalog(intro):
    definition = parse_query(
        "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)", intro.schema)
    return ViewCatalog([View("DEPT_EMP", definition)])


class TestViewAndCatalog:
    def test_view_head_must_be_distinguished_variables(self, intro):
        definition = parse_query("V(e) :- EMP(e, s, 'sales')", intro.schema)
        View("V", definition)  # fine: constant in the body only
        bad = parse_query("V(e, 7) :- EMP(e, s, d)", intro.schema)
        with pytest.raises(ViewError):
            View("V", bad)

    def test_view_head_must_not_repeat_variables(self, intro):
        definition = parse_query("V(e, e) :- EMP(e, s, d)", intro.schema)
        with pytest.raises(ViewError):
            View("V", definition)

    def test_catalog_rejects_name_collisions(self, intro, dept_emp_catalog):
        with pytest.raises(ViewError):
            dept_emp_catalog.add(View("EMP", parse_query(
                "EMP2(e) :- EMP(e, s, d)", intro.schema).renamed("EMP")))
        with pytest.raises(ViewError):
            dept_emp_catalog.add(View("DEPT_EMP", parse_query(
                "DEPT_EMP(d) :- DEP(d, l)", intro.schema)))

    def test_extended_schema_contains_view_relation(self, dept_emp_catalog):
        extended = dept_emp_catalog.extended_schema()
        assert "DEPT_EMP" in extended
        assert extended.relation("DEPT_EMP").arity == 3
        assert "EMP" in extended and "DEP" in extended

    def test_catalog_fingerprint_is_order_insensitive(self, intro):
        v1 = View("V1", parse_query("V1(e) :- EMP(e, s, d)", intro.schema))
        v2 = View("V2", parse_query("V2(d) :- DEP(d, l)", intro.schema))
        assert (catalog_fingerprint(ViewCatalog([v1, v2]))
                == catalog_fingerprint(ViewCatalog([v2, v1])))
        assert (catalog_fingerprint(ViewCatalog([v1]))
                != catalog_fingerprint(ViewCatalog([v2])))


class TestExpansion:
    def test_expansion_unfolds_view_atoms(self, intro, dept_emp_catalog):
        extended = dept_emp_catalog.extended_schema()
        rewriting = parse_query("R(e) :- DEPT_EMP(e, d, l)", extended)
        expanded = expand_query(rewriting, dept_emp_catalog)
        assert expanded.input_schema == intro.schema
        assert expanded.relations_used() == {"EMP", "DEP"}
        assert len(expanded) == 2
        # The expansion is the view body with the head bound: equivalent to
        # Q1 without any dependencies.
        assert are_equivalent(expanded, intro.q1, solver=Solver())

    def test_expansion_freshens_existentials_per_occurrence(self, intro):
        v = View("V", parse_query("V(e) :- EMP(e, s, d)", intro.schema))
        catalog = ViewCatalog([v])
        extended = catalog.extended_schema()
        rewriting = parse_query("R(a, b) :- V(a), V(b)", extended)
        expanded = expand_query(rewriting, catalog)
        assert len(expanded) == 2
        # The two occurrences must not share the view's existentials s, d.
        first, second = expanded.conjuncts
        assert set(first.terms[1:]).isdisjoint(set(second.terms[1:]))

    def test_expansion_rejects_foreign_relations(self, intro, dept_emp_catalog):
        other_schema_query = parse_query("R(e) :- EMP(e, s, d)", intro.schema)
        expand_query(other_schema_query, dept_emp_catalog)  # base atoms pass
        stray = ViewCatalog([View("OTHER", parse_query(
            "OTHER(d) :- DEP(d, l)", intro.schema))])
        rewriting = parse_query(
            "R(e) :- DEPT_EMP(e, d, l)", dept_emp_catalog.extended_schema())
        with pytest.raises(ViewError):
            expand_query(rewriting, stray)


class TestIntroExampleRewriting:
    """The acceptance scenario: the paper's intro example as view rewriting."""

    def test_q1_single_atom_rewriting(self, intro, dept_emp_catalog):
        solver = Solver()
        report = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        best = report.best
        assert best is not None and best.certified
        assert len(best.query) == 1
        assert best.query.conjuncts[0].relation == "DEPT_EMP"
        assert best.view_names == ("DEPT_EMP",)
        # Independent certification, fresh solver.
        assert are_equivalent(best.expansion, intro.q1, intro.dependencies,
                              solver=Solver())

    def test_q2_needs_the_foreign_key(self, intro, dept_emp_catalog):
        solver = Solver()
        with_ind = solver.rewrite(intro.q2, dept_emp_catalog, intro.dependencies)
        assert with_ind.best is not None
        assert len(with_ind.best.query) == 1
        # Without the IND the view body cannot be matched: EMP employees may
        # have departments without a DEP row, so no rewriting exists.
        without = solver.rewrite(intro.q2, dept_emp_catalog)
        assert without.best is None and not without.rewritings

    def test_rewrite_report_describe_and_dict(self, intro, dept_emp_catalog):
        report = Solver().rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        text = report.describe()
        assert "DEPT_EMP" in text and "certified" in text
        document = report.as_dict()
        assert document["rewritings"][0]["views"] == ["DEPT_EMP"]
        json.dumps(document)  # JSON-serializable as-is


class TestCostModels:
    def test_default_cost_prefers_fewer_atoms(self, intro, dept_emp_catalog):
        report = Solver().rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        costs = [rewriting.cost for rewriting in report.rewritings]
        assert costs == sorted(costs)
        assert report.best.cost == (1, 2)

    def test_custom_cost_model_is_honoured_and_uncached(self, intro, dept_emp_catalog):
        solver = Solver()

        def inverted(rewriting, expansion):
            return tuple(-c for c in default_cost(rewriting, expansion))

        first = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies,
                               cost_model=inverted)
        assert first.best.cost == (-1, -2)
        assert solver.cache_info()["rewrite"].misses == 0  # cache bypassed
        again = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies,
                               cost_model=view_atoms_first)
        assert again.best is not None


class TestSolverIntegration:
    def test_rewrite_cache_hit_on_repeat(self, intro, dept_emp_catalog):
        solver = Solver()
        first = solver.solve(RewriteRequest(
            intro.q1, dept_emp_catalog, intro.dependencies, tag="a"))
        second = solver.solve(RewriteRequest(
            intro.q1, dept_emp_catalog, intro.dependencies, tag="b"))
        assert not first.cache_hit and second.cache_hit
        assert second.report is first.report
        assert first.tag == "a" and second.tag == "b"

    def test_catalog_content_keys_the_cache(self, intro, dept_emp_catalog):
        solver = Solver()
        solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        clone = ViewCatalog([View("DEPT_EMP", parse_query(
            "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)", intro.schema))])
        response = solver.solve(RewriteRequest(
            intro.q1, clone, intro.dependencies))
        assert response.cache_hit  # same content, different object

    def test_cache_stats_aggregates_every_cache(self, intro, dept_emp_catalog):
        solver = Solver()
        solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        stats = solver.cache_stats()
        assert set(stats) == {"containment", "chase", "rewrite", "total"}
        assert stats["rewrite"]["hits"] == 1
        assert stats["total"]["hits"] >= stats["rewrite"]["hits"]
        assert stats["total"]["misses"] == sum(
            stats[name]["misses"] for name in ("containment", "chase", "rewrite"))

    def test_rewrite_counts_in_solver_stats(self, intro, dept_emp_catalog):
        solver = Solver()
        solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        assert solver.stats.rewrite_requests == 1
        assert solver.stats.total_requests >= 1

    def test_disabled_rewrite_cache(self, intro, dept_emp_catalog):
        solver = Solver(SolverConfig(rewrite_cache_size=0))
        solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        response = solver.solve(RewriteRequest(
            intro.q1, dept_emp_catalog, intro.dependencies))
        assert not response.cache_hit

    def test_request_config_governs_certification_and_chase(
            self, intro, dept_emp_catalog, monkeypatch):
        # The session names one engine and no level cap; the request names
        # the other engine and a cap.  Every certification and every chase
        # the rewrite runs, cached or not, must follow the request.
        decided, chased, chased_names = [], [], []
        certify = Solver._certify
        cached_chase, fresh_chase = Solver._cached_chase, Solver._fresh_chase

        def spy_certify(self, query, query_prime, sigma, config, *matching):
            decided.append(config)
            return certify(self, query, query_prime, sigma, config, *matching)

        def spy_cached_chase(self, query, dependencies, config):
            chased.append(config)
            return cached_chase(self, query, dependencies, config)

        def spy_fresh_chase(self, query, dependencies, config):
            chased.append(config)
            chased_names.append(query.name)
            return fresh_chase(self, query, dependencies, config)

        monkeypatch.setattr(Solver, "_certify", spy_certify)
        monkeypatch.setattr(Solver, "_cached_chase", spy_cached_chase)
        monkeypatch.setattr(Solver, "_fresh_chase", spy_fresh_chase)
        request_config = SolverConfig(chase_engine="legacy",
                                      saturation_level_cap=3)
        solver = Solver(SolverConfig(chase_engine="columnar"))
        response = solver.solve(RewriteRequest(
            intro.q1, dept_emp_catalog, intro.dependencies,
            config=request_config))
        assert response.report.rewritings
        assert decided and chased
        # Both directions of each rewriting went through the seam.
        assert len(decided) >= 2 * len(response.report.rewritings)
        # The forward certifications chase the expansions, uncached.
        assert "Q1_views_expanded" in chased_names
        assert all(config.containment_key() == request_config.containment_key()
                   for config in decided)
        assert all(config.engine == "legacy" for config in chased)

    def test_certificate_bearing_reports_are_never_cached(self, intro,
                                                          dept_emp_catalog):
        """Mirrors the containment cache's invariant: certificates are
        standalone artifacts a caller may mutate, so reports carrying them
        must not be shared across calls."""
        solver = Solver(SolverConfig(with_certificate=True))
        first = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        second = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        assert first is not second
        assert first.rewritings and second.rewritings
        first.rewritings.clear()  # a tampering caller...
        third = solver.rewrite(intro.q1, dept_emp_catalog, intro.dependencies)
        assert third.rewritings  # ...cannot poison later answers


def _key_based_lav_tenant():
    """A key-based Σ, a 24-view LAV catalog over it, and a chain query."""
    schema = SchemaGenerator(seed=41).uniform(6, 3, prefix="F41R")
    sigma = DependencyGenerator(schema, seed=41).key_based(3)
    catalog = ViewCatalogGenerator(schema, seed=41).lav_catalog(24, sigma)
    query = QueryGenerator(schema, seed=0).chain(
        4, relation_names=["F41R3", "F41R2", "F41R5", "F41R4"], name="Q")
    return query, catalog, sigma


class TestCertificationOutsideTheAnswerCaches:
    """Certification decides each candidate on fresh chases and proves the
    backward direction from the matching chase: a rewrite keys, reads and
    stores nothing but the matching chase and its own report."""

    @pytest.mark.parametrize("persistent", [False, True])
    def test_bucketed_rewrite_touches_only_chase_and_rewrite(
            self, tmp_path, persistent):
        query, catalog, sigma = _key_based_lav_tenant()
        with contextlib.ExitStack() as stack:
            store = (stack.enter_context(
                         PersistentCache(str(tmp_path / "cache.sqlite")))
                     if persistent else None)
            solver = Solver(persistent_cache=store)
            report = solver.rewrite(
                query, catalog, sigma,
                config=SolverConfig(rewrite_strategy="bucketed"))
            assert report.rewritings
            info = solver.cache_info()
            containment, chase, rewrite = (info["containment"], info["chase"],
                                           info["rewrite"])
            assert (containment.hits, containment.misses,
                    containment.size) == (0, 0, 0)
            assert (chase.hits, chase.misses, chase.size) == (0, 1, 1)
            assert (rewrite.hits, rewrite.misses, rewrite.size) == (0, 1, 1)
            # One containment request per direction decided.
            assert solver.stats.containment_requests >= 2 * report.certified
            if store is not None:
                assert store.sizes() == {"containment": 0, "chase": 1,
                                         "rewrite": 1}

    def test_no_witness_in_the_matching_chase_leaves_it_unproved(self, intro):
        # Q2's chase holds EMP(e, s, d) and DEP(d, l'): no EMP atom starts
        # at d, so nothing witnesses Q2 ⊆ Q'.
        solver = Solver()
        matching = solver.chase(intro.q2, intro.dependencies)
        other = parse_query("Q2(e) :- EMP(e, s, d), EMP(d, t, u)",
                            intro.schema)
        result = solver._certify(
            intro.q2, other, intro.dependencies, SolverConfig(), matching,
            build_target_index(list(matching.conjuncts())))
        assert (result.holds, result.certain) == (False, False)
        assert result.homomorphism is None
        assert solver.stats.containment_requests == 1

    @pytest.mark.parametrize("example", [intro_example, intro_example_key_based])
    def test_certificates_for_both_directions_verify_on_intro(self, example):
        sample = example()
        catalog = parse_views(
            "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)\n"
            "EMPS(e, d) :- EMP(e, s, d)", sample.schema)
        for query in (sample.q1, sample.q2):
            report = Solver().rewrite(query, catalog, sample.dependencies,
                                      config=SolverConfig(with_certificate=True))
            assert report.rewritings
            for rewriting in report.rewritings:
                self._assert_both_certificates(rewriting)

    def test_certificates_for_both_directions_verify_on_lav(self):
        query, catalog, sigma = _key_based_lav_tenant()
        report = Solver().rewrite(
            query, catalog, sigma,
            config=SolverConfig(rewrite_strategy="bucketed", with_certificate=True))
        assert report.rewritings
        for rewriting in report.rewritings:
            self._assert_both_certificates(rewriting)

    @staticmethod
    def _assert_both_certificates(rewriting):
        forward, backward = rewriting.forward, rewriting.backward
        assert forward.certificate is not None and forward.certificate.verify()
        assert backward.certificate is not None and backward.certificate.verify()
        # The backward proof is the matching chase's witness.
        assert backward.certificate.homomorphism == backward.homomorphism
        assert backward.certificate.query_prime is rewriting.expansion


class TestViewsParser:
    def test_parse_views_builds_catalog(self, intro):
        catalog = parse_views(
            "# the intro example's collapse\n"
            "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)\n"
            "\n"
            "EMPS(e) :- EMP(e, s, d)\n",
            intro.schema)
        assert catalog.names() == ["DEPT_EMP", "EMPS"]
        assert catalog.get("DEPT_EMP").arity == 3

    def test_parse_views_reports_bad_heads_with_line(self, intro):
        with pytest.raises(ParseError, match="line 2"):
            parse_views(
                "GOOD(e) :- EMP(e, s, d)\n"
                "BAD(e, e) :- EMP(e, s, d)\n",
                intro.schema)


class TestRewriteCLI:
    SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)\n"
    DEPS = "EMP[dept] <= DEP[dept]\n"
    VIEWS = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)\n"
    QUERY = "Q1(e) :- EMP(e, s, d), DEP(d, l)"

    def _write(self, tmp_path):
        schema = tmp_path / "schema.txt"
        deps = tmp_path / "deps.txt"
        views = tmp_path / "views.txt"
        schema.write_text(self.SCHEMA)
        deps.write_text(self.DEPS)
        views.write_text(self.VIEWS)
        return schema, deps, views

    def test_rewrite_prose_and_exit_status(self, tmp_path, capsys):
        schema, deps, views = self._write(tmp_path)
        status = main(["rewrite", "--schema", str(schema), "--deps", str(deps),
                       "--views", str(views), "--query", self.QUERY])
        out = capsys.readouterr().out
        assert status == EXIT_YES
        assert "DEPT_EMP" in out and "certified" in out

    def test_rewrite_json_includes_cache_stats(self, tmp_path, capsys):
        schema, deps, views = self._write(tmp_path)
        status = main(["rewrite", "--schema", str(schema), "--deps", str(deps),
                       "--views", str(views), "--query", self.QUERY, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert status == EXIT_YES
        assert document["rewritings"][0]["views"] == ["DEPT_EMP"]
        assert "rewrite" in document["cache_stats"]
        assert document["cache_stats"]["total"]["misses"] > 0

    def test_rewrite_exit_no_without_dependencies(self, tmp_path, capsys):
        schema, _, views = self._write(tmp_path)
        status = main(["rewrite", "--schema", str(schema),
                       "--views", str(views),
                       "--query", "Q2(e) :- EMP(e, s, d)"])
        assert status == EXIT_NO

    def test_batch_json_emits_cache_stats_summary(self, tmp_path, capsys):
        schema, deps, _ = self._write(tmp_path)
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({
            "query": "Q2(e) :- EMP(e, s, d)",
            "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)",
        }) + "\n")
        status = main(["batch", "--schema", str(schema), "--deps", str(deps),
                       "--input", str(questions), "--json"])
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert status == EXIT_YES
        assert "holds" in lines[0]
        summary = lines[-1]
        assert summary["summary"]["questions"] == 1
        assert "containment" in summary["cache_stats"]


class TestGeneratedViewShapes:
    def test_chain_projections_validate(self):
        schema = SchemaGenerator(seed=3).uniform(4, 3)
        views = ViewCatalogGenerator(schema, seed=3).chain_projections()
        assert len(views) == 4
        for view in views:
            assert len(view.definition) == 2
            assert view.arity == 2

    def test_star_collapses_validate(self):
        schema = SchemaGenerator(seed=0).star(3)
        views = ViewCatalogGenerator(schema, seed=0).star_collapses(
            "FACT", ["DIM1", "DIM2", "DIM3"])
        assert len(views) == 3
        for view in views:
            assert {c.relation for c in view.definition}.issuperset({"FACT"})

    def test_key_join_collapses_match_dependency_count(self):
        schema = SchemaGenerator(seed=1).uniform(5, 3)
        sigma = DependencyGenerator(schema, seed=1).key_based(3)
        views = ViewCatalogGenerator(schema, seed=1).key_join_collapses(sigma)
        assert 1 <= len(views) <= len(sigma.inclusion_dependencies())

    def test_catalog_is_deterministic_in_seed(self):
        schema = SchemaGenerator(seed=5).uniform(6, 3)
        sigma = DependencyGenerator(schema, seed=5).key_based(3)
        first = ViewCatalogGenerator(schema, seed=7).catalog(4, sigma)
        second = ViewCatalogGenerator(schema, seed=7).catalog(4, sigma)
        assert catalog_fingerprint(first) == catalog_fingerprint(second)


class TestRewriterSoundness:
    """Satellite: seeded property-based soundness of the backchase.

    For generated (schema, Σ, query, catalog) quadruples, every rewriting
    the engine returns must be certified equivalent to the original by an
    independent ``are_equivalent`` call on a fresh solver — the engine's
    own certification must never be the only witness.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_every_returned_rewriting_is_equivalent(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(5, 3)
        sigma = DependencyGenerator(schema, seed=seed).key_based(3)
        queries = QueryGenerator(schema, seed=seed + 100)
        catalog = ViewCatalogGenerator(schema, seed=seed).catalog(5, sigma)
        solver = Solver()
        for query in (queries.chain(3, name="Qc3"),
                      queries.chain(4, name="Qc4"),
                      queries.random(3, name="Qr3")):
            report = solver.rewrite(query, catalog, sigma)
            for rewriting in report.rewritings:
                assert rewriting.certified
                assert are_equivalent(rewriting.expansion, query, sigma,
                                      solver=Solver()), (
                    f"seed {seed}: uncertified rewriting "
                    f"{rewriting.query} for {query}")

    @pytest.mark.parametrize("seed", range(3))
    def test_ind_only_dependencies(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(4, 2)
        sigma = DependencyGenerator(schema, seed=seed).ind_only(3, max_width=1)
        queries = QueryGenerator(schema, seed=seed + 50)
        catalog = ViewCatalogGenerator(schema, seed=seed).catalog(4)
        solver = Solver()
        query = queries.chain(3, name="Qc")
        report = solver.rewrite(query, catalog, sigma)
        for rewriting in report.rewritings:
            assert are_equivalent(rewriting.expansion, query, sigma,
                                  solver=Solver())
