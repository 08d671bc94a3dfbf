"""Unit tests for the containment procedures (Theorem 1 / Theorem 2)."""

import pytest

from repro.api import Solver
from repro.chase.engine import ChaseVariant
from repro.containment.bounds import lemma5_level_bound, theorem2_level_bound
from repro.containment.decision import contains, is_contained
from repro.containment.fd_containment import contained_under_fds
from repro.containment.ind_containment import contained_under_bounded_chase
from repro.containment.no_dependencies import contained_without_dependencies
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.exceptions import ContainmentUndecided, QueryError
from repro.queries.builder import QueryBuilder


class TestLevelBounds:
    def test_lemma5_formula(self):
        assert lemma5_level_bound(3, 2, 1) == 3 * 2 * 2
        assert lemma5_level_bound(2, 3, 2) == 2 * 3 * 9
        assert lemma5_level_bound(5, 4, 0) == 20
        assert lemma5_level_bound(0, 0, 0) == 1

    def test_theorem2_bound_uses_query_and_sigma_sizes(self, intro):
        bound = theorem2_level_bound(intro.q1, intro.dependencies)
        assert bound == len(intro.q1) * len(intro.dependencies) * 2

    def test_width_override(self, intro):
        assert theorem2_level_bound(intro.q1, intro.dependencies, max_width=2) == \
            len(intro.q1) * len(intro.dependencies) * 9


class TestNoDependencies:
    def test_chandra_merlin_both_directions(self, intro):
        # Without the IND, Q1 (more constrained) is contained in Q2 but not
        # conversely — exactly the paper's motivating observation.
        assert contained_without_dependencies(intro.q1, intro.q2).holds
        assert not contained_without_dependencies(intro.q2, intro.q1).holds

    def test_result_carries_homomorphism(self, intro):
        result = contained_without_dependencies(intro.q1, intro.q2)
        assert result.certain
        assert result.homomorphism is not None
        assert result.method == "chandra-merlin"

    def test_identical_queries_contained(self, intro):
        assert contained_without_dependencies(intro.q1, intro.q1).holds

    def test_interface_mismatch_rejected(self, intro, binary_r_schema):
        other = QueryBuilder(binary_r_schema).head("x").atom("R", "x", "y").build()
        with pytest.raises(QueryError):
            contained_without_dependencies(intro.q1, other)

    def test_folding_with_repeated_atoms(self, binary_r_schema):
        specific = QueryBuilder(binary_r_schema, "spec").head("x").atom("R", "x", "x").build()
        general = QueryBuilder(binary_r_schema, "gen").head("x").atom("R", "x", "y").build()
        assert contained_without_dependencies(specific, general).holds
        assert not contained_without_dependencies(general, specific).holds


class TestFDContainment:
    def test_key_fd_makes_joined_query_equivalent(self, emp_dep_schema):
        # With EMP: emp -> dept, joining EMP twice on emp forces equal depts.
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "dept")],
                              schema=emp_dep_schema)
        q_two_atoms = (
            QueryBuilder(emp_dep_schema, "Qa")
            .head("e")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d1", "l1")
            .atom("DEP", "d2", "l2")
            .build()
        )
        q_one_atom = (
            QueryBuilder(emp_dep_schema, "Qb")
            .head("e")
            .atom("EMP", "e", "s", "d")
            .atom("DEP", "d", "l")
            .build()
        )
        assert contained_without_dependencies(q_two_atoms, q_one_atom).holds
        # Without the FD, Qb is not contained in Qa (Qa needs two DEP rows
        # reachable from possibly different departments)... it actually is,
        # because the containment mapping can reuse atoms; the interesting
        # direction is that the FD is not even needed here:
        assert contained_under_fds(q_one_atom, q_two_atoms, sigma).holds

    def test_fd_containment_uses_chase(self, emp_dep_schema):
        # Q returns (e, d2) from two EMP atoms sharing the key; Q' wants the
        # *same* atom to provide both, which only holds under the FD.
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "dept")],
                              schema=emp_dep_schema)
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e", "d2")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d1", "l")
            .build()
        )
        q_prime = (
            QueryBuilder(emp_dep_schema, "Qp")
            .head("e", "d")
            .atom("EMP", "e", "s", "d")
            .atom("DEP", "d", "l")
            .build()
        )
        assert not contained_without_dependencies(q, q_prime).holds
        assert contained_under_fds(q, q_prime, sigma).holds
        assert is_contained(q, q_prime, sigma).holds

    def test_failed_chase_means_vacuous_containment(self, emp_dep_schema):
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "sal")],
                              schema=emp_dep_schema)
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", 100, "d")
            .atom("EMP", "e", 200, "d")
            .build()
        )
        q_prime = (
            QueryBuilder(emp_dep_schema, "Qp")
            .head("e")
            .atom("DEP", "e", "l")
            .build()
        )
        result = contained_under_fds(q, q_prime, sigma)
        assert result.holds and result.certain
        assert result.method == "failed-chase"

    def test_fd_only_positive_answer_carries_a_certificate(self, emp_dep_schema):
        # The EMP/DEP pair of test_fd_containment_uses_chase: Q' maps into
        # the FD chase of Q, so the answer can ship a proof.
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "dept")],
                              schema=emp_dep_schema)
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e", "d2")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d1", "l")
            .build()
        )
        q_prime = (
            QueryBuilder(emp_dep_schema, "Qp")
            .head("e", "d")
            .atom("EMP", "e", "s", "d")
            .atom("DEP", "d", "l")
            .build()
        )
        result = Solver().is_contained(q, q_prime, sigma, with_certificate=True)
        assert result.holds and result.method == "fd-chase"
        assert result.certificate is not None
        assert result.certificate.verify()
        assert result.certificate.proof_size() == 3
        assert Solver().is_contained(q, q_prime, sigma).certificate is None


class TestINDContainment:
    def test_intro_example_needs_the_ind(self, intro):
        with_ind = is_contained(intro.q2, intro.q1, intro.dependencies)
        without_ind = is_contained(intro.q2, intro.q1)
        assert with_ind.holds and with_ind.certain
        assert not without_ind.holds and without_ind.certain
        assert with_ind.method == "bounded-chase"

    def test_key_based_variant_agrees(self, intro_key_based):
        result = is_contained(intro_key_based.q2, intro_key_based.q1,
                              intro_key_based.dependencies)
        assert result.holds and result.certain

    def test_figure1_containment_through_deep_chase(self, figure1):
        # Q' asks for an S tuple whose first two columns come from an R tuple
        # ending in the same value: satisfied at level 1 of the chase.
        schema = figure1.schema
        q_prime = (
            QueryBuilder(schema, "Qp")
            .head("c")
            .atom("R", "a", "b", "c")
            .atom("S", "a", "c", "w")
            .build()
        )
        result = is_contained(figure1.query, q_prime, figure1.dependencies)
        assert result.holds and result.certain
        assert result.levels_built >= 1

    def test_figure1_non_containment_is_certain(self, figure1):
        # Q' requires a T tuple whose value equals the *output* column c,
        # which the chase never produces.
        schema = figure1.schema
        q_prime = (
            QueryBuilder(schema, "Qp")
            .head("c")
            .atom("R", "a", "b", "c")
            .atom("T", "c", "w")
            .build()
        )
        result = is_contained(figure1.query, q_prime, figure1.dependencies)
        assert not result.holds
        assert result.certain
        assert result.level_bound == theorem2_level_bound(q_prime, figure1.dependencies)

    def test_o_chase_and_r_chase_agree(self, intro, figure1):
        for variant in (ChaseVariant.RESTRICTED, ChaseVariant.OBLIVIOUS):
            assert is_contained(intro.q2, intro.q1, intro.dependencies,
                                variant=variant).holds
        schema = figure1.schema
        q_prime = (
            QueryBuilder(schema, "Qp")
            .head("c")
            .atom("R", "a", "b", "c")
            .atom("T", "a", "w")
            .build()
        )
        answers = {
            is_contained(figure1.query, q_prime, figure1.dependencies,
                         variant=variant).holds
            for variant in (ChaseVariant.RESTRICTED, ChaseVariant.OBLIVIOUS)
        }
        assert answers == {True}

    def test_budget_exhaustion_reports_uncertain(self, figure1):
        schema = figure1.schema
        q_prime = (
            QueryBuilder(schema, "Qp")
            .head("c")
            .atom("R", "a", "b", "c")
            .atom("T", "c", "w")
            .build()
        )
        result = contained_under_bounded_chase(
            figure1.query, q_prime, figure1.dependencies, max_conjuncts=3)
        assert not result.holds
        assert not result.certain
        with pytest.raises(ContainmentUndecided):
            bool(result)

    def test_contains_raises_on_uncertain(self, figure1):
        schema = figure1.schema
        q_prime = (
            QueryBuilder(schema, "Qp")
            .head("c")
            .atom("R", "a", "b", "c")
            .atom("T", "c", "w")
            .build()
        )
        with pytest.raises(ContainmentUndecided):
            contains(figure1.query, q_prime, figure1.dependencies, max_conjuncts=3)
        assert contains(figure1.query, q_prime, figure1.dependencies) is False

    def test_general_sigma_negative_answers_are_uncertain(self, section4):
        result = is_contained(section4.q1, section4.q2, section4.dependencies)
        assert not result.holds
        assert not result.certain  # Σ is neither IND-only nor key-based

    def test_general_sigma_positive_answers_are_certain(self, section4):
        result = is_contained(section4.q2, section4.q1, section4.dependencies)
        assert result.holds and result.certain

    def test_reflexivity_under_any_sigma(self, intro, figure1, section4):
        assert is_contained(intro.q1, intro.q1, intro.dependencies).holds
        assert is_contained(figure1.query, figure1.query, figure1.dependencies).holds
        assert is_contained(section4.q1, section4.q1, section4.dependencies).holds

    def test_explicit_level_bound_override(self, intro):
        result = is_contained(intro.q2, intro.q1, intro.dependencies, level_bound=1)
        assert result.holds
        assert result.level_bound == 1

    def test_describe_is_informative(self, intro):
        result = is_contained(intro.q2, intro.q1, intro.dependencies)
        text = result.describe()
        assert "holds" in text and "bounded-chase" in text


class TestTheorem2EdgeCases:
    """Edge-case coverage for the Theorem 2 machinery (PR 5 satellites)."""

    def test_zero_conjunct_bound_degenerates_to_one(self):
        """A hypothetical zero-conjunct Q' still chases its level-0 roots."""
        assert lemma5_level_bound(0, 5, 2) == 1
        assert lemma5_level_bound(0, 0, 4) == 1

    def test_width_zero_sigma_bound(self, emp_dep_schema):
        """FD-only Σ has W = 0, so the bound collapses to |Q'| · |Σ|."""
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "sal"),
                               FunctionalDependency("EMP", ["emp"], "dept")],
                              schema=emp_dep_schema)
        q_prime = (
            QueryBuilder(emp_dep_schema, name="Qp")
            .head("e").atom("EMP", "e", "s", "d").build()
        )
        assert sigma.max_width() == 0
        assert theorem2_level_bound(q_prime, sigma) == len(q_prime) * len(sigma)

    def test_bound_one_deepening_schedule(self):
        """bound=1 must yield the single-stage schedule [1], not [2, 1]."""
        from repro.containment.ind_containment import _deepening_schedule
        assert _deepening_schedule(1) == [1]
        assert _deepening_schedule(2) == [2]
        assert _deepening_schedule(3) == [2, 3]
        assert _deepening_schedule(16) == [2, 4, 8, 16]

    def test_bound_one_decision_still_exact(self, intro):
        """Forcing the whole decision through a bound of 1 stays correct."""
        result = is_contained(intro.q2, intro.q1, intro.dependencies,
                              level_bound=1)
        assert result.holds and result.certain and result.level_bound == 1


class TestFailedChaseReporting:
    """Regression: the failed-chase branch must report real prefix stats."""

    def failing_after_level_zero(self):
        """Σ and Q whose chase clashes only after building level 1.

        The width-2 IND copies (5, 7) into S, where the FD S: c → d then
        collides the copied 7 with the level-0 constant 8.
        """
        from repro.dependencies.inclusion import InclusionDependency
        from repro.parser import parse_query, parse_schema
        schema = parse_schema("R(a, b)\nS(c, d)")
        sigma = DependencySet([
            FunctionalDependency("S", ["c"], "d"),
            InclusionDependency("R", ["a", "b"], "S", ["c", "d"]),
        ], schema=schema)
        query = parse_query("Q(v) :- R(5, 7), S(5, 8), R(v, w)", schema)
        q_prime = parse_query("Q(v) :- S(v, w)", schema)
        return schema, sigma, query, q_prime

    def test_prefix_stats_are_not_zeroed(self):
        _, sigma, query, q_prime = self.failing_after_level_zero()
        result = contained_under_bounded_chase(query, q_prime, sigma,
                                               exact=False)
        assert result.holds and result.certain
        assert result.method == "failed-chase"
        # The clash happened after the level-1 conjunct was built: the
        # reported prefix must reflect that, not the post-failure empty
        # chase (the seed reported levels_built=0, chase_size=0 here).
        assert result.levels_built == 1
        assert result.chase_size == 4
        assert "S: c -> d" in result.reason

    def test_failed_chase_result_carries_the_dependency(self):
        from repro.chase.engine import ChaseConfig, build_engine
        _, sigma, query, _ = self.failing_after_level_zero()
        for engine in ("columnar", "legacy"):
            chase_result = build_engine(query, sigma,
                                        ChaseConfig(engine=engine)).run()
            assert chase_result.failed
            assert chase_result.failure_dependency == "S: c -> d"
            assert chase_result.failure_live_conjuncts == 4
            assert chase_result.statistics.max_level_reached == 1

    def test_level_zero_clash_still_reports_zero_levels(self, emp_dep_schema):
        """A clash among the roots legitimately reports a level-0 prefix."""
        from repro.parser import parse_query
        sigma = DependencySet([FunctionalDependency("EMP", ["emp"], "sal")],
                              schema=emp_dep_schema)
        query = parse_query(
            "Q(e) :- EMP(e, 100, d), EMP(e, 200, d2)", emp_dep_schema)
        q_prime = parse_query("Q(e) :- EMP(e, s, d)", emp_dep_schema)
        result = contained_under_bounded_chase(query, q_prime, sigma)
        assert result.holds and result.method == "failed-chase"
        assert result.levels_built == 0
        assert result.chase_size == 2
        assert "EMP: emp -> sal" in result.reason
