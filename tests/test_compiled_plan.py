"""The columnar engine's compiled plan: built once per (Σ, schema), never stale.

Everything a columnar chase needs that depends only on Σ and the schema
is compiled into one immutable :class:`CompiledPlan`, memoised on the
:class:`DependencySet` under the schema signature.  These tests pin the
memo's three obligations:

* it is built once and shared by every later chase over the same Σ and
  schema, concurrent chases included, and no run mutates it;
* :meth:`DependencySet.add` drops it, so a dependency added after a
  chase fires in the next one;
* it is keyed by the schema signature, not by Σ alone, so the same Σ
  text over schemas that differ only in attribute order copies the
  right columns under each.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Solver
from repro.chase import columnar
from repro.chase.columnar import ColumnarChaseEngine, CompiledPlan
from repro.chase.engine import ChaseConfig, ChaseVariant
from repro.chase.legacy_engine import LegacyChaseEngine
from repro.dependencies import InclusionDependency
from repro.parser import parse_dependencies, parse_query, parse_schema


def node_rows(result):
    return [(node.node_id, node.level, node.relation, node.conjunct.terms,
             node.alive) for node in result.graph.nodes(include_dead=True)]


@pytest.fixture
def keyed_workload():
    """Key FDs plus a cyclic IND pair: merges, fresh NDVs, truncation."""
    schema = parse_schema("R(a, b, c)\nS(d, e)")
    sigma = parse_dependencies(
        "R: a -> b\nR: a -> c\nR[c] <= S[d]\nS[e] <= R[a]", schema)
    query = parse_query("Q(x) :- R(x, y, z), R(x, u, v), S(z, w)", schema)
    return schema, sigma, query


class TestPlanSharing:
    def test_compiled_once_per_schema(self, keyed_workload, monkeypatch):
        schema, sigma, query = keyed_workload
        compiled = []

        def counting(dependencies, target):
            compiled.append(target.signature())
            return CompiledPlan(dependencies, target)

        monkeypatch.setattr(columnar, "CompiledPlan", counting)
        for _ in range(3):
            ColumnarChaseEngine(query, sigma, ChaseConfig(max_level=3)).run()
        assert compiled == [schema.signature()]
        sigma.add(InclusionDependency("R", ["b"], "S", ["d"]))
        ColumnarChaseEngine(query, sigma, ChaseConfig(max_level=3)).run()
        assert len(compiled) == 2

    def test_runs_leave_the_plan_untouched(self, keyed_workload):
        schema, sigma, query = keyed_workload
        plan = sigma.compiled(schema, CompiledPlan)

        def contents():
            return {name: (dict(value) if isinstance(value, dict) else value)
                    for name in CompiledPlan.__slots__
                    for value in (getattr(plan, name),)}

        before = contents()
        for variant in ChaseVariant:
            result = ColumnarChaseEngine(
                query, sigma, ChaseConfig(variant=variant, max_level=4)).run()
            assert result.statistics.merged_conjuncts > 0
        assert sigma.compiled(schema, CompiledPlan) is plan
        assert contents() == before

    def test_concurrent_chases_share_one_plan(self, keyed_workload):
        _, sigma, query = keyed_workload
        config = ChaseConfig(max_level=4, max_conjuncts=500)
        expected = node_rows(LegacyChaseEngine(query, sigma, config).run())
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: ColumnarChaseEngine(query, sigma, config).run(),
                range(8)))
        for result in results:
            assert node_rows(result) == expected


class TestPlanInvalidation:
    def test_added_ind_fires_in_the_next_chase(self):
        schema = parse_schema("R(a, b)\nS(c, d)\nT(e, f)")
        sigma = parse_dependencies("R[b] <= S[c]", schema)
        query = parse_query("Q(x) :- R(x, y)", schema)
        config = ChaseConfig(engine="columnar", max_level=3)
        before = Solver().chase(query, sigma, config)
        assert [node.relation for node in before.graph] == ["R", "S"]
        sigma.add(InclusionDependency("S", ["d"], "T", ["e"]))
        after = Solver().chase(query, sigma, config)
        assert [node.relation for node in after.graph] == ["R", "S", "T"]
        assert after.statistics.ind_steps == 2


class TestPlanKeyedBySchema:
    def test_attribute_order_changes_the_copied_columns(self):
        """``R[b] ⊆ S[c]`` over two schemas that list the same attributes
        in opposite orders: each chase must copy R's ``b`` column into S's
        ``c`` column *of its own schema*, whichever Σ object it uses."""
        schemas = (parse_schema("R(a, b)\nS(c, d)"),
                   parse_schema("R(b, a)\nS(d, c)"))
        sigmas = [parse_dependencies("R[b] <= S[c]", schema)
                  for schema in schemas]
        for sigma in sigmas:
            for schema in schemas:
                query = parse_query("Q(x) :- R(x, y)", schema)
                result = ColumnarChaseEngine(query, sigma,
                                             ChaseConfig(max_level=2)).run()
                source, created = (node.conjunct for node in result.graph)
                b = schema.relation("R").positions_of(["b"])[0]
                c = schema.relation("S").positions_of(["c"])[0]
                assert created.relation == "S"
                assert created.terms[c] == source.terms[b]
                assert created.terms[1 - c] not in source.terms
                assert node_rows(result) == node_rows(LegacyChaseEngine(
                    query, sigma, ChaseConfig(max_level=2)).run())
