"""Facts about a tenant's Σ are computed once per tenant, never stale.

A tenant is one schema and one Σ shared by many requests.  Its class of
Σ, its validation, its compiled chase plan and its width W (the
Theorem 2 level bound's exponent) depend on no query, so
:class:`DependencySet` memoises them: the first three keyed on the
schema's memoised :meth:`~DatabaseSchema.signature_text`, W on the set
itself.  These tests pin the memos' obligations:

* :meth:`DependencySet.add` drops every one of them;
* a Σ pickled before W was memoised unpickles without it and computes
  it on first use;
* two schema objects with the same text share one compiled plan;
* serving many requests of one tenant walks its schema's relations for
  a signature once.
"""

from __future__ import annotations

import pickle

from repro.api.solver import Solver
from repro.chase.columnar import CompiledPlan
from repro.dependencies import (
    DependencyClass,
    DependencySet,
    FunctionalDependency,
    InclusionDependency,
)
from repro.parser import parse_dependencies, parse_schema
from repro.relational.schema import DatabaseSchema
from repro.service.protocol import TenantParser, handle_record

SCHEMA = "R(a, b)\nS(c, d)\nT(e, f, g)"
DEPS = "R[b] <= S[c]"


def tenant():
    schema = parse_schema(SCHEMA)
    return schema, parse_dependencies(DEPS, schema)


def tree_tenant(depth):
    """A binary tree of INDs, as the served_cold benchmark sends them."""
    count = 2 ** (depth + 1) - 1
    schema = "\n".join(f"P{i}(a{i}, b{i})" for i in range(count))
    deps = "\n".join(f"P{i}[b{i}] <= P{child}[a{child}]"
                     for i in range((count - 1) // 2)
                     for child in (2 * i + 1, 2 * i + 2))
    return schema, deps


class TestInvalidation:
    def test_add_clears_w_and_the_text_keyed_memos(self):
        schema, sigma = tenant()
        assert DependencySet(schema=schema).max_width() == 0
        assert sigma.max_width() == 1
        assert sigma.classify(schema) is DependencyClass.IND_ONLY
        sigma.validate(schema)
        plan = sigma.compiled(schema, CompiledPlan)
        assert sigma.compiled(schema, CompiledPlan) is plan
        assert sigma._validated_signatures == {schema.signature_text()}

        sigma.add(InclusionDependency("T", ["e", "f"], "R", ["a", "b"]))
        assert sigma._validated_signatures == set()
        assert sigma.max_width() == 2
        assert sigma.compiled(schema, CompiledPlan) is not plan
        sigma.add(FunctionalDependency("T", ["e"], "g"))
        assert sigma.classify(schema) is DependencyClass.GENERAL


class TestPickles:
    def test_a_set_pickled_without_w_computes_it(self):
        schema, sigma = tenant()
        sigma.add(InclusionDependency("T", ["e", "f"], "R", ["a", "b"]))
        vars(sigma).pop("_max_width", None)
        blob = pickle.dumps(sigma)
        assert b"_max_width" not in blob
        restored = pickle.loads(blob)
        assert "_max_width" not in vars(restored)
        assert restored.max_width() == 2
        restored.add(InclusionDependency("T", ["e", "f", "g"],
                                         "T", ["f", "g", "e"]))
        assert restored.max_width() == 3

    def test_a_pickled_w_stays_consistent(self):
        _, sigma = tenant()
        assert sigma.max_width() == 1
        restored = pickle.loads(pickle.dumps(sigma))
        assert restored.max_width() == 1
        restored.add(InclusionDependency("T", ["e", "f"], "R", ["a", "b"]))
        assert restored.max_width() == 2


class TestSharedByText:
    def test_schemas_with_equal_text_share_one_plan(self):
        first, sigma = tenant()
        second = parse_schema(SCHEMA)
        assert second is not first
        assert second.signature_text() == first.signature_text()
        plan = sigma.compiled(first, CompiledPlan)
        assert sigma.compiled(second, CompiledPlan) is plan
        assert sigma.classify(second) is sigma.classify(first)

    def test_schemas_with_other_text_get_their_own_plan(self):
        first, sigma = tenant()
        reordered = parse_schema("R(b, a)\nS(d, c)\nT(e, f, g)")
        plan = sigma.compiled(first, CompiledPlan)
        other = sigma.compiled(reordered, CompiledPlan)
        assert other is not plan
        assert sigma.compiled(reordered, CompiledPlan) is other


class TestOneSignaturePerTenant:
    def test_tree_requests_of_one_tenant_build_the_signature_once(
            self, monkeypatch):
        schema_text, deps_text = tree_tenant(3)
        parser = TenantParser()
        solver = Solver()
        built = []
        signature = DatabaseSchema.signature

        def counting(target):
            built.append(target)
            return signature(target)

        monkeypatch.setattr(DatabaseSchema, "signature", counting)
        for node in range(7):
            left, right = 2 * node + 1, 2 * node + 2
            record = {
                "op": "contain", "id": node,
                "schema": schema_text, "deps": deps_text,
                "query": f"Q(x) :- P{node}(x, y)",
                "query_prime": (f"Q(x) :- P{node}(x, y), P{left}(y, z), "
                                f"P{right}(y, w)"),
            }
            envelope = handle_record(record, solver, parser=parser)
            assert envelope["ok"] and envelope["result"]["holds"], envelope
        assert built == [parser.schema(schema_text)]
