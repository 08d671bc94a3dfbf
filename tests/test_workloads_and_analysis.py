"""Unit tests for the workload generators, paper examples, and analysis helpers."""

import pytest

from repro.analysis.reporting import chase_statistics_report, format_table, series_report
from repro.analysis.statistics import chase_growth_profile, containment_sweep
from repro.chase.engine import ChaseStatistics, ChaseVariant
from repro.containment.decision import is_contained
from repro.dependencies.dependency_set import DependencyClass
from repro.dependencies.violations import database_satisfies
from repro.workloads.database_generator import DatabaseGenerator
from repro.workloads.dependency_generator import DependencyGenerator
from repro.workloads.paper_examples import (
    figure1_example,
    intro_example,
    intro_example_key_based,
    section4_example,
)
from repro.workloads.query_generator import QueryGenerator
from repro.workloads.schema_generator import SchemaGenerator


class TestSchemaGenerator:
    def test_uniform(self):
        schema = SchemaGenerator().uniform(4, 3)
        assert len(schema) == 4
        assert all(rel.arity == 3 for rel in schema)

    def test_mixed_arities_in_range(self):
        schema = SchemaGenerator(seed=1).mixed(6, min_arity=2, max_arity=4)
        assert all(2 <= rel.arity <= 4 for rel in schema)

    def test_star(self):
        schema = SchemaGenerator().star(3)
        assert "FACT" in schema
        assert schema.relation("FACT").arity == 4
        assert all(f"DIM{i}" in schema for i in (1, 2, 3))

    def test_star_arity_check(self):
        with pytest.raises(ValueError):
            SchemaGenerator().star(3, fact_arity=2)


class TestQueryGenerator:
    def test_chain_shape(self):
        schema = SchemaGenerator().uniform(3, 3)
        q = QueryGenerator(schema).chain(5)
        assert len(q) == 5
        assert q.output_arity == 2

    def test_chain_is_connected(self):
        from repro.queries.graph import QueryGraph
        schema = SchemaGenerator().uniform(2, 2)
        q = QueryGenerator(schema).chain(4)
        assert QueryGraph(q).is_connected()

    def test_star_query(self):
        schema = SchemaGenerator().star(3)
        q = QueryGenerator(schema).star("FACT", ["DIM1", "DIM2", "DIM3"])
        assert len(q) == 4
        assert q.output_arity == 3

    def test_random_queries_are_safe_and_reproducible(self):
        schema = SchemaGenerator().uniform(3, 2)
        first = QueryGenerator(schema, seed=11).random(4, variable_pool=5)
        second = QueryGenerator(schema, seed=11).random(4, variable_pool=5)
        assert first == second
        body_variables = {t for c in first.conjuncts for t in c.terms}
        assert all(v in body_variables for v in first.summary_row)

    def test_weakened_query_contains_original(self):
        schema = SchemaGenerator().uniform(2, 2)
        generator = QueryGenerator(schema, seed=3)
        q = generator.chain(4)
        weaker = generator.weakened(q, drop_count=1)
        assert len(weaker) <= len(q)
        assert is_contained(q, weaker).holds

    def test_invalid_parameters(self):
        schema = SchemaGenerator().uniform(2, 2)
        generator = QueryGenerator(schema)
        with pytest.raises(ValueError):
            generator.chain(0)
        with pytest.raises(ValueError):
            generator.random(0)
        with pytest.raises(ValueError):
            generator.weakened(generator.chain(2), drop_count=5)


class TestDependencyGenerator:
    def test_ind_only_sets_classify_correctly(self):
        schema = SchemaGenerator().uniform(3, 3)
        for seed in range(3):
            sigma = DependencyGenerator(schema, seed=seed).ind_only(4, max_width=2)
            assert sigma.is_ind_only()
            assert sigma.max_ind_width() <= 2
            assert len(sigma) == 4

    def test_key_based_sets_classify_correctly(self):
        schema = SchemaGenerator().uniform(3, 3)
        for seed in range(3):
            sigma = DependencyGenerator(schema, seed=seed).key_based(3)
            assert sigma.classify(schema) is DependencyClass.KEY_BASED

    def test_cyclic_chain_never_saturates(self):
        from repro.chase.engine import r_chase
        schema = SchemaGenerator().uniform(2, 2)
        sigma = DependencyGenerator(schema).cyclic_ind_chain(width=1)
        q = QueryGenerator(schema).chain(1, relation_names=["R1"])
        result = r_chase(q, sigma, max_level=4)
        assert result.truncated

    def test_foreign_key_helper(self, emp_dep_schema):
        sigma = DependencyGenerator(emp_dep_schema).foreign_key(
            "EMP", ["dept"], "DEP", key_width=1)
        assert sigma.is_key_based(emp_dep_schema)


class TestDatabaseGenerator:
    def test_random_database_sizes(self):
        schema = SchemaGenerator().uniform(2, 2)
        database = DatabaseGenerator(schema, seed=1).random(tuples_per_relation=5)
        assert database.total_rows() <= 10

    def test_satisfying_database_obeys_sigma(self, intro):
        generator = DatabaseGenerator(intro.schema, seed=2)
        database = generator.satisfying(intro.dependencies)
        assert database is not None
        assert database_satisfies(database, intro.dependencies)

    def test_key_based_instance(self, intro_key_based):
        generator = DatabaseGenerator(intro_key_based.schema, seed=3)
        database = generator.key_based_instance(intro_key_based.dependencies)
        assert database_satisfies(database, intro_key_based.dependencies)

    def test_key_based_instance_requires_key_based_sigma(self, intro):
        generator = DatabaseGenerator(intro.schema, seed=3)
        with pytest.raises(ValueError):
            generator.key_based_instance(intro.dependencies)


class TestPaperExamples:
    def test_intro_example_contract(self):
        example = intro_example()
        assert example.dependencies.is_ind_only()
        assert len(example.q1) == 2 and len(example.q2) == 1

    def test_key_based_intro_contract(self):
        example = intro_example_key_based()
        assert example.dependencies.is_key_based(example.schema)

    def test_figure1_contract(self):
        example = figure1_example()
        assert example.dependencies.max_ind_width() == 2
        assert len(example.dependencies) == 3
        assert len(example.query) == 1

    def test_section4_contract(self):
        example = section4_example()
        assert len(example.dependencies.functional_dependencies()) == 1
        assert len(example.dependencies.inclusion_dependencies()) == 1


class TestAnalysis:
    def test_chase_growth_profile_monotone(self):
        example = figure1_example()
        profile = chase_growth_profile(example.query, example.dependencies,
                                       [1, 2, 3, 4], variant=ChaseVariant.OBLIVIOUS)
        assert profile.conjunct_counts == sorted(profile.conjunct_counts)
        assert profile.saturated_at is None
        assert len(profile.as_rows()) == 4

    def test_chase_growth_detects_saturation(self):
        example = intro_example()
        profile = chase_growth_profile(example.q2, example.dependencies, [1, 2, 3])
        assert profile.saturated_at == 1

    def test_containment_sweep(self):
        example = intro_example()
        cases = [
            ("with-ind", {"sigma": "ind"}, example.q2, example.q1, example.dependencies),
            ("without", {"sigma": "none"}, example.q2, example.q1, None),
        ]
        points = containment_sweep(cases)
        assert points[0].holds and not points[1].holds
        assert all(p.certain for p in points)
        assert all(p.seconds >= 0 for p in points)

    def test_format_table_and_series(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", {"k": 1}]], title="T")
        assert "T" in table and "| a" in table and "k=1" in table
        series = series_report("growth", [1, 2], [3, 4], "level", "size")
        assert "level" in series and "growth" in series

    def test_chase_statistics_report_has_a_row_per_counter(self):
        statistics = ChaseStatistics(egd_steps=2, tgd_steps=3,
                                     redundant_tgd_applications=4)
        table = chase_statistics_report({"columnar": statistics})
        rows = [line.split("|")[1:3] for line in table.splitlines()[3:]]
        counts = {name.strip(): int(value) for name, value in rows}
        assert list(counts) == [*ChaseStatistics.COUNTERS, "total_steps",
                                "max_level_reached", "triggers_fired"]
        assert (counts["egd_steps"], counts["tgd_steps"],
                counts["redundant_tgd_applications"]) == (2, 3, 4)
        assert counts["total_steps"] == counts["triggers_fired"] == 9
