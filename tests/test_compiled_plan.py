"""The columnar engine's compiled plan: built once per (Σ, schema), never stale.

Everything a columnar chase needs that depends only on Σ and the schema
is compiled into one immutable :class:`CompiledPlan`, memoised on the
:class:`DependencySet` under the schema signature.  These tests pin the
memo's three obligations:

* it is built once and shared by every later chase over the same Σ and
  schema, concurrent chases included, and no run mutates it — the
  single-atom rules and the trigger index's rule tables alike;
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


def frozen(value):
    """A deep, comparable copy of a plan value: the chase's own slotted
    objects (rules, FD specs, trigger tables) become their slot values."""
    if isinstance(value, dict):
        return {key: frozen(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(frozen(item) for item in value))
    if (type(value).__module__.startswith("repro.chase.")
            and hasattr(type(value), "__slots__")):
        return (type(value).__name__,
                {name: frozen(getattr(value, name))
                 for name in type(value).__slots__})
    return value


WORKLOADS = {
    # Key FDs plus a cyclic IND pair: merges, fresh NDVs, truncation.
    "keyed": ("R: a -> b\nR: a -> c\nR[c] <= S[d]\nS[e] <= R[a]",
              "Q(x) :- R(x, y, z), R(x, u, v), S(z, w)"),
    # The trigger index's rules: a two-atom body (with a constant), a
    # two-atom head, and an EGD that merges the query's R atoms.
    "embedded": ("R(x, y, z), S(z, 0) -> S(y, v)\n"
                 "S(d, e) -> R(e, d, f), S(f, d)\n"
                 "R(x, y, z), R(x, u, v) -> y = u",
                 "Q(x) :- R(x, y, z), R(x, u, z), S(z, 0)"),
}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    schema = parse_schema("R(a, b, c)\nS(d, e)")
    deps_text, query_text = WORKLOADS[request.param]
    return (schema, parse_dependencies(deps_text, schema),
            parse_query(query_text, schema))


class TestPlanSharing:
    def test_compiled_once_per_schema(self, workload, monkeypatch):
        schema, sigma, query = workload
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

    def test_runs_leave_the_plan_untouched(self, workload):
        schema, sigma, query = workload
        plan = sigma.compiled(schema, CompiledPlan)
        before = frozen(plan)
        for variant in ChaseVariant:
            result = ColumnarChaseEngine(
                query, sigma, ChaseConfig(variant=variant, max_level=4)).run()
            assert result.statistics.merged_conjuncts > 0
        assert sigma.compiled(schema, CompiledPlan) is plan
        assert frozen(plan) == before

    def test_concurrent_chases_share_one_plan(self, workload):
        _, sigma, query = workload
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
