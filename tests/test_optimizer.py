"""Unit tests for the query-optimization pipeline."""


from repro.containment.equivalence import are_equivalent
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.optimizer.pipeline import (
    eliminate_redundant_joins,
    optimize,
    simplify_with_fds,
)
from repro.queries.builder import QueryBuilder


class TestSimplifyWithFDs:
    def test_merges_and_coalesces(self, emp_dep_schema):
        sigma = DependencySet([
            FunctionalDependency("EMP", ["emp"], "sal"),
            FunctionalDependency("EMP", ["emp"], "dept"),
        ], schema=emp_dep_schema)
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .build()
        )
        steps = []
        simplified = simplify_with_fds(q, sigma, steps)
        assert simplified is not None
        assert len(simplified) == 1
        assert steps and steps[0].stage == "fd-simplify"

    def test_unsatisfiable_query_detected(self, emp_dep_schema):
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "sal")],
                              schema=emp_dep_schema)
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", 1, "d")
            .atom("EMP", "e", 2, "d")
            .build()
        )
        assert simplify_with_fds(q, sigma, []) is None
        report = optimize(q, sigma)
        assert report.unsatisfiable
        assert report.verify()

    def test_no_fds_is_identity(self, intro):
        assert simplify_with_fds(intro.q1, intro.dependencies, []) == intro.q1

    def test_merged_atoms_keep_their_input_labels(self, emp_dep_schema):
        # The FD stage merges c2 into c1 and c4 into c3; the report keeps
        # the survivors' own labels and names the merges in its step.
        fds = [
            FunctionalDependency("EMP", ["emp"], "sal"),
            FunctionalDependency("EMP", ["emp"], "dept"),
            FunctionalDependency("DEP", ["dept"], "loc"),
        ]
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e", "l")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d2", "l")
            .atom("DEP", "d1", "l2")
            .build()
        )
        with_ind = fds + [InclusionDependency("EMP", ["dept"], "DEP", ["dept"])]
        for sigma in (DependencySet(fds, schema=emp_dep_schema),
                      DependencySet(with_ind, schema=emp_dep_schema)):
            simplified = simplify_with_fds(q, sigma, [])
            assert simplified.name == "Q"
            assert [c.label for c in simplified.conjuncts] == ["c1", "c3"]
            report = optimize(q, sigma)
            assert [c.label for c in report.optimized.conjuncts] == ["c1", "c3"]
            assert [(step.stage, step.description) for step in report.steps] == [
                ("fd-simplify", "FD chase applied 3 merge(s), 4 -> 2 conjuncts")]
            assert str(report.optimized) == (
                "Q_optimized(e, l) :- EMP(e, s1, d1), DEP(d1, l)")


class TestJoinElimination:
    def test_intro_example_dep_join_removed(self, intro):
        steps = []
        reduced = eliminate_redundant_joins(intro.q1, intro.dependencies, steps)
        assert len(reduced) == 1
        assert reduced.conjuncts[0].relation == "EMP"
        assert len(steps) == 1
        assert steps[0].removed_conjunct is not None
        assert steps[0].justification is not None and steps[0].justification.holds

    def test_nothing_removed_without_dependencies(self, intro):
        steps = []
        reduced = eliminate_redundant_joins(intro.q1, DependencySet(schema=intro.schema), steps)
        assert len(reduced) == len(intro.q1)
        assert steps == []


class TestOptimizePipeline:
    def test_full_pipeline_on_intro_example(self, intro):
        report = optimize(intro.q1, intro.dependencies)
        assert len(report.optimized) == 1
        assert report.conjuncts_removed == 1
        assert report.verify()
        assert "join-elimination" in report.describe()
        assert report.optimized.name.endswith("_optimized")

    def test_pipeline_combines_fd_and_ind_rewrites(self, intro_key_based):
        schema = intro_key_based.schema
        q = (
            QueryBuilder(schema, "Q")
            .head("e")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d1", "l")
            .build()
        )
        report = optimize(q, intro_key_based.dependencies)
        assert len(report.optimized) == 1
        assert report.optimized.conjuncts[0].relation == "EMP"
        stages = {step.stage for step in report.steps}
        assert "fd-simplify" in stages and "join-elimination" in stages
        assert report.verify()

    def test_core_stage_removes_structural_redundancy(self, binary_r_schema):
        q = (
            QueryBuilder(binary_r_schema, "Q")
            .head("x")
            .atom("R", "x", "y")
            .atom("R", "x", "z")
            .build()
        )
        report = optimize(q)  # no dependencies at all
        assert len(report.optimized) == 1
        assert any(step.stage in ("core", "join-elimination") for step in report.steps)
        assert report.verify()

    def test_minimal_query_untouched(self, intro):
        report = optimize(intro.q2, intro.dependencies)
        assert report.conjuncts_removed == 0
        assert report.optimized.size() == intro.q2.size()
        assert are_equivalent(report.optimized, intro.q2, intro.dependencies)

    def test_star_schema_foreign_keys(self):
        from repro.workloads.schema_generator import SchemaGenerator
        from repro.workloads.query_generator import QueryGenerator
        schema = SchemaGenerator().star(3)
        fact = schema.relation("FACT")
        sigma = DependencySet(schema=schema)
        for index in range(1, 4):
            dimension = schema.relation(f"DIM{index}")
            for fd in FunctionalDependency.key(dimension, [f"k{index}"]):
                sigma.add(fd)
            sigma.add(InclusionDependency(
                "FACT", [fact.attribute_name_at(index - 1)], f"DIM{index}", [f"k{index}"]))
        query = QueryGenerator(schema, seed=1).star("FACT", ["DIM1", "DIM2", "DIM3"])
        report = optimize(query, sigma)
        assert len(report.optimized) == 1
        assert report.conjuncts_removed == 3
        assert report.verify()
        assert len(report.removed_conjuncts()) == 3

    def test_join_elimination_is_linear_in_containment_calls(self):
        """Dropping a conjunct must not restart the scan: the stage asks at
        most one containment question per conjunct of the input query, even
        when many conjuncts are removable."""
        from repro.api import Solver, SolverConfig
        from repro.workloads.schema_generator import SchemaGenerator
        from repro.workloads.query_generator import QueryGenerator
        satellites = 5
        schema = SchemaGenerator().star(satellites)
        fact = schema.relation("FACT")
        sigma = DependencySet(schema=schema)
        for index in range(1, satellites + 1):
            dimension = schema.relation(f"DIM{index}")
            for fd in FunctionalDependency.key(dimension, [f"k{index}"]):
                sigma.add(fd)
            sigma.add(InclusionDependency(
                "FACT", [fact.attribute_name_at(index - 1)],
                f"DIM{index}", [f"k{index}"]))
        query = QueryGenerator(schema, seed=1).star(
            "FACT", [f"DIM{i}" for i in range(1, satellites + 1)])
        # Caches off so every question the stage asks is counted once.
        solver = Solver(SolverConfig(containment_cache_size=0,
                                     chase_cache_size=0))
        eliminated = eliminate_redundant_joins(query, sigma, solver=solver)
        assert len(eliminated) == 1
        assert solver.stats.containment_requests <= len(query)
