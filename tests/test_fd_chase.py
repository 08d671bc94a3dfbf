"""Unit tests for the FD chase rule on FD-only Σ.

On FD-only Σ the chase is the classical Maier–Mendelzon–Sagiv chase.
Every case runs under both engines, so the columnar engine's candidate
heap is checked against the legacy engine's pairwise scan on the same
expectations.
"""

import pytest

from repro.chase.engine import (
    ChaseConfig,
    ConstantClash,
    build_engine,
    resolve_merge,
)
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.queries.builder import QueryBuilder
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable

ENGINES = ("legacy", "columnar")


def fd_chase(query, fds, engine):
    sigma = DependencySet(fds, schema=query.input_schema)
    return build_engine(query, sigma, ChaseConfig(engine=engine)).run()


class TestResolveMerge:
    def test_constant_beats_variable(self):
        survivor, loser = resolve_merge(Constant(1), NonDistinguishedVariable("y"))
        assert survivor == Constant(1)
        assert loser == NonDistinguishedVariable("y")
        survivor, loser = resolve_merge(NonDistinguishedVariable("y"), Constant(1))
        assert survivor == Constant(1)

    def test_dv_beats_ndv(self):
        survivor, _ = resolve_merge(NonDistinguishedVariable("a"), DistinguishedVariable("z"))
        assert survivor == DistinguishedVariable("z")

    def test_two_constants_clash(self):
        with pytest.raises(ConstantClash):
            resolve_merge(Constant(1), Constant(2))

    def test_equal_terms_are_a_no_op(self):
        survivor, loser = resolve_merge(Constant(1), Constant(1))
        assert survivor == loser == Constant(1)


@pytest.mark.parametrize("engine", ENGINES)
class TestFDChase:
    def test_merges_symbols_forced_equal(self, emp_dep_schema, engine):
        # Two EMP atoms with the same emp value must agree on sal and dept.
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .atom("DEP", "d1", "l")
            .build()
        )
        fds = [
            FunctionalDependency("EMP", ["emp"], "sal"),
            FunctionalDependency("EMP", ["emp"], "dept"),
        ]
        result = fd_chase(q, fds, engine)
        assert not result.failed and result.saturated
        # The two EMP atoms collapse into one.
        assert [c.relation for c in result.conjuncts()] == ["EMP", "DEP"]
        assert result.statistics.fd_steps == 2
        assert result.statistics.merged_conjuncts == 1

    def test_constant_clash_gives_empty_query(self, emp_dep_schema, engine):
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", 100, "d")
            .atom("EMP", "e", 200, "d")
            .build()
        )
        result = fd_chase(q, [FunctionalDependency("EMP", ["emp"], "sal")], engine)
        assert result.failed
        assert result.conjuncts() == [] and len(result) == 0
        assert result.failure_live_conjuncts == 2
        assert result.trace.fd_applications()[-1].halted

    def test_constant_propagates_to_summary_row(self, emp_dep_schema, engine):
        # The chase merges the head variable with a constant: the summary row
        # must now carry that constant.
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("s")
            .atom("EMP", "e", "s", "d")
            .atom("EMP", "e", 100, "d2")
            .build()
        )
        result = fd_chase(q, [FunctionalDependency("EMP", ["emp"], "sal")], engine)
        assert not result.failed
        assert result.summary_row == (Constant(100),)
        assert result.as_query().summary_row == (Constant(100),)

    def test_no_applicable_fd_returns_same_query(self, intro, engine):
        result = fd_chase(intro.q1, [FunctionalDependency("DEP", ["dept"], "loc")],
                          engine)
        assert not result.failed and result.saturated
        assert result.statistics.fd_steps == 0
        assert [c.terms for c in result.conjuncts()] == [
            c.terms for c in intro.q1.conjuncts]
        assert result.summary_row == intro.q1.summary_row

    def test_dv_survives_merge_with_ndv(self, emp_dep_schema, engine):
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e", "s")
            .atom("EMP", "e", "s", "d")
            .atom("EMP", "e", "t", "d2")
            .build()
        )
        result = fd_chase(q, [FunctionalDependency("EMP", ["emp"], "sal")], engine)
        assert not result.failed
        symbols = result.as_query().symbols()
        assert DistinguishedVariable("s") in symbols
        assert NonDistinguishedVariable("t") not in symbols

    def test_first_application_follows_fd_order(self, emp_dep_schema, engine):
        q = (
            QueryBuilder(emp_dep_schema, "Q")
            .head("e")
            .atom("EMP", "e", "s1", "d1")
            .atom("EMP", "e", "s2", "d2")
            .build()
        )
        fds = [
            FunctionalDependency("EMP", ["emp"], "dept"),
            FunctionalDependency("EMP", ["emp"], "sal"),
        ]
        first = fd_chase(q, fds, engine).trace.fd_applications()[0]
        # The lexicographically first FD in the given order is chosen,
        # on the first pair of conjuncts.
        assert first.dependency.rhs == "dept"
        assert (first.first_conjunct, first.second_conjunct) == ("n0", "n1")


def repeated_key_query(schema, copies):
    """E10's query: ``copies`` EMP/DEP pairs that all share the key ``e``."""
    builder = QueryBuilder(schema, f"Q{copies}").head("e")
    for index in range(copies):
        builder.atom("EMP", "e", f"s{index}", f"d{index}")
        builder.atom("DEP", f"d{index}", f"l{index}")
    return builder.build()


def test_fd_work_grows_with_the_square_of_the_copies(emp_dep_schema):
    """The candidate heap probes each new or rewritten fact once, so the
    FD pairs the columnar engine examines grow about 4x when the copies
    double; a rescan of the delta after every merge grows about 8x."""
    fds = [
        FunctionalDependency("EMP", ["emp"], "sal"),
        FunctionalDependency("EMP", ["emp"], "dept"),
        FunctionalDependency("DEP", ["dept"], "loc"),
    ]
    examined = {}
    for copies in (32, 64):
        result = fd_chase(repeated_key_query(emp_dep_schema, copies), fds, "columnar")
        assert len(result) == 2
        examined[copies] = result.statistics.triggers_examined
    assert examined[64] <= 5 * examined[32], examined
