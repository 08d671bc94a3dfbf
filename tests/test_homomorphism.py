"""Unit tests for the homomorphism engine (generic search and wrappers)."""

import itertools
import random

import pytest

from repro import Database, DatabaseSchema
from repro.homomorphism.problem import HomomorphismProblem, TargetIndex, constant_matches
from repro.homomorphism.search import (
    count_homomorphisms,
    find_homomorphism,
    has_homomorphism,
    iter_homomorphisms,
)
from repro.homomorphism.query_homomorphism import (
    build_target_index,
    find_query_homomorphism,
    has_query_homomorphism,
    iter_query_homomorphisms,
    verify_query_homomorphism,
)
from repro.homomorphism.database_homomorphism import (
    answers_contain,
    database_target_index,
    evaluate_atoms,
    find_database_homomorphism,
)
from repro.parser import parse_query
from repro.queries.builder import QueryBuilder
from repro.queries.conjunct import Conjunct
from repro.queries.evaluation import answer_contains, evaluate
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable


X = DistinguishedVariable("x")
Y = NonDistinguishedVariable("y")
Z = NonDistinguishedVariable("z")


class TestTargetIndex:
    def test_add_and_candidates(self):
        index = TargetIndex({"R": [(1, 2), (1, 3), (2, 3)]})
        assert index.total_facts() == 3
        assert set(index.candidates("R", [(0, 1)])) == {(1, 2), (1, 3)}
        assert index.candidates("R", [(0, 1), (1, 3)]) == [(1, 3)]
        assert index.candidates("R", []) == index.facts("R")
        assert index.candidates("R", [(0, 99)]) == []
        assert index.candidates("S", []) == []

    def test_constant_matching(self):
        assert constant_matches(Constant(1), 1)
        assert constant_matches(Constant(1), Constant(1))
        assert not constant_matches(Constant(1), 2)
        assert not constant_matches(Constant(1), Constant(2))


class TestGenericSearch:
    def test_simple_match(self):
        atoms = [Conjunct("R", [X, Y])]
        index = TargetIndex({"R": [(1, 2)]})
        solution = find_homomorphism(HomomorphismProblem(atoms, index))
        assert solution == {X: 1, Y: 2}

    def test_join_variable_must_agree(self):
        atoms = [Conjunct("R", [X, Y]), Conjunct("S", [Y, Z])]
        index = TargetIndex({"R": [(1, 2)], "S": [(3, 4)]})
        assert not has_homomorphism(HomomorphismProblem(atoms, index))
        index.add("S", (2, 5))
        solution = find_homomorphism(HomomorphismProblem(atoms, index))
        assert solution == {X: 1, Y: 2, Z: 5}

    def test_constants_must_match(self):
        atoms = [Conjunct("R", [X, Constant(7)])]
        index = TargetIndex({"R": [(1, 2)]})
        assert not has_homomorphism(HomomorphismProblem(atoms, index))
        index.add("R", (3, 7))
        assert find_homomorphism(HomomorphismProblem(atoms, index)) == {X: 3}

    def test_required_bindings_respected(self):
        atoms = [Conjunct("R", [X, Y])]
        index = TargetIndex({"R": [(1, 2), (3, 4)]})
        problem = HomomorphismProblem(atoms, index, required={X: 3})
        assert find_homomorphism(problem) == {X: 3, Y: 4}

    def test_unsatisfiable_required_binding(self):
        atoms = [Conjunct("R", [X, Y])]
        index = TargetIndex({"R": [(1, 2)]})
        problem = HomomorphismProblem(atoms, index, required={X: 99})
        assert find_homomorphism(problem) is None

    def test_iter_and_count_all_solutions(self):
        atoms = [Conjunct("R", [X, Y])]
        index = TargetIndex({"R": [(1, 2), (3, 4)]})
        problem = HomomorphismProblem(atoms, index)
        assert count_homomorphisms(problem) == 2
        assert count_homomorphisms(problem, limit=1) == 1
        assert count_homomorphisms(problem, limit=0) == 0
        solutions = list(iter_homomorphisms(problem))
        assert {frozenset(s.items()) for s in solutions} == {
            frozenset({(X, 1), (Y, 2)}), frozenset({(X, 3), (Y, 4)}),
        }

    def test_repeated_variable_in_atom(self):
        atoms = [Conjunct("R", [X, X])]
        index = TargetIndex({"R": [(1, 2), (3, 3)]})
        assert find_homomorphism(HomomorphismProblem(atoms, index)) == {X: 3}

    def test_missing_relation_is_unsatisfiable(self):
        atoms = [Conjunct("MISSING", [X])]
        problem = HomomorphismProblem(atoms, TargetIndex())
        assert problem.is_trivially_unsatisfiable()
        assert not has_homomorphism(problem)

    def test_source_variables_order(self):
        atoms = [Conjunct("R", [X, Y]), Conjunct("R", [Z, X])]
        problem = HomomorphismProblem(atoms, TargetIndex({"R": [(1, 1)]}))
        assert problem.source_variables() == [X, Y, Z]


class TestQueryHomomorphism:
    def test_chandra_merlin_style_folding(self, binary_r_schema):
        big = (
            QueryBuilder(binary_r_schema, "big")
            .head("x").atom("R", "x", "y").atom("R", "x", "z").build()
        )
        small = (
            QueryBuilder(binary_r_schema, "small")
            .head("x").atom("R", "x", "y").build()
        )
        # big folds onto small (map z -> y), but also small maps into big.
        assert has_query_homomorphism(big.conjuncts, big.summary_row,
                                      small.conjuncts, small.summary_row)
        assert has_query_homomorphism(small.conjuncts, small.summary_row,
                                      big.conjuncts, big.summary_row)

    def test_summary_row_must_be_preserved(self, binary_r_schema):
        q_forward = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        q_backward = QueryBuilder(binary_r_schema).head("x").atom("R", "y", "x").build()
        # Without the summary-row requirement R(x,y) trivially maps to R(y,x);
        # with it, the map would have to send x to both positions.
        assert not has_query_homomorphism(
            q_forward.conjuncts, q_forward.summary_row,
            q_backward.conjuncts, q_backward.summary_row)

    def test_mismatched_summary_constants(self, binary_r_schema):
        q_const = (
            QueryBuilder(binary_r_schema).head(QueryBuilder.constant("a"))
            .atom("R", "x", "y").build()
        )
        q_other = (
            QueryBuilder(binary_r_schema).head(QueryBuilder.constant("b"))
            .atom("R", "x", "y").build()
        )
        assert not has_query_homomorphism(
            q_const.conjuncts, q_const.summary_row,
            q_other.conjuncts, q_other.summary_row)
        assert has_query_homomorphism(
            q_const.conjuncts, q_const.summary_row,
            q_const.conjuncts, q_const.summary_row)

    def test_found_mapping_passes_verifier(self, binary_r_schema):
        source = (
            QueryBuilder(binary_r_schema).head("x")
            .atom("R", "x", "y").atom("R", "y", "z").build()
        )
        target = (
            QueryBuilder(binary_r_schema).head("x")
            .atom("R", "x", "x").build()
        )
        mapping = find_query_homomorphism(source.conjuncts, source.summary_row,
                                          target.conjuncts, target.summary_row)
        assert mapping is not None
        assert verify_query_homomorphism(mapping, source.conjuncts, source.summary_row,
                                         target.conjuncts, target.summary_row)

    def test_verifier_rejects_bogus_mapping(self, binary_r_schema):
        source = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        target = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "x").build()
        x = next(iter(source.distinguished_variables()))
        bogus = {x: NonDistinguishedVariable("nonsense")}
        assert not verify_query_homomorphism(bogus, source.conjuncts, source.summary_row,
                                             target.conjuncts, target.summary_row)

    def test_iter_query_homomorphisms(self, binary_r_schema):
        source = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        target = (
            QueryBuilder(binary_r_schema).head("x")
            .atom("R", "x", "y").atom("R", "x", "z").build()
        )
        solutions = list(iter_query_homomorphisms(source.conjuncts, source.summary_row,
                                                  target.conjuncts, target.summary_row))
        assert len(solutions) == 2

    def test_prebuilt_target_index_reused(self, binary_r_schema):
        source = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        target = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        index = build_target_index(target.conjuncts)
        assert find_query_homomorphism(source.conjuncts, source.summary_row,
                                       target.conjuncts, target.summary_row,
                                       target_index=index) is not None


class TestDatabaseHomomorphism:
    def test_evaluate_atoms_matches_query_evaluation(self, intro, emp_dep_database):
        answers = evaluate_atoms(intro.q1.conjuncts, intro.q1.summary_row, emp_dep_database)
        assert answers == {("e1",), ("e2",)}

    def test_answers_contain(self, intro, emp_dep_database):
        assert answers_contain(intro.q2.conjuncts, intro.q2.summary_row,
                               emp_dep_database, ("e3",))
        assert not answers_contain(intro.q1.conjuncts, intro.q1.summary_row,
                                   emp_dep_database, ("e3",))

    def test_answers_contain_treats_none_as_a_value(self):
        schema = DatabaseSchema.from_dict({"R": ["a", "b"]})
        query = parse_query("Q(x, x) :- R(x, y)", schema)
        database = Database(schema, {"R": [("k", "m")]})
        assert evaluate(query, database) == {("k", "k")}
        assert not answer_contains(query, database, (None, "k"))
        assert not answer_contains(query, database, ("k", None))
        assert answer_contains(query, database, ("k", "k"))

    @pytest.mark.parametrize("seed", range(6))
    def test_answers_contain_agrees_with_evaluation_over_none(self, seed):
        schema = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["b", "c"]})
        queries = [parse_query(text, schema) for text in (
            "Q(x, x) :- R(x, y)",
            "Q(x, y, x) :- R(x, y), S(y, z)",
            "Q(y, x, y) :- R(x, y), S(y, x)",
            "Q(x, 'k') :- R(x, y), S(y, y)",
        )]
        rng = random.Random(seed)
        domain = (None, "k", "m")
        for _ in range(5):
            database = Database(schema, {
                name: {(rng.choice(domain), rng.choice(domain))
                       for _ in range(rng.randint(0, 5))}
                for name in ("R", "S")})
            for query in queries:
                answers = evaluate(query, database)
                for row in itertools.product(domain, repeat=len(query.summary_row)):
                    assert answer_contains(query, database, row) == (row in answers)

    def test_find_database_homomorphism_with_required(self, intro, emp_dep_database):
        e = next(iter(intro.q2.distinguished_variables()))
        solution = find_database_homomorphism(intro.q2.conjuncts, emp_dep_database,
                                              required={e: "e2"})
        assert solution is not None
        assert solution[e] == "e2"

    def test_database_target_index(self, emp_dep_database):
        index = database_target_index(emp_dep_database)
        assert index.total_facts() == emp_dep_database.total_rows()
