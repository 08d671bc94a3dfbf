"""A query's fingerprint: digested once per query object, never stale.

:func:`~repro.api.fingerprints.query_fingerprint` memoises the digest on
the query together with the schema text object it embedded.  The
certification loop of a view rewrite keys every containment and chase
on the same original query, so it is rendered once per rewrite instead
of once per key.  These tests pin the memo's obligations:

* the digests are those of the unmemoised rendering;
* a second call renders nothing;
* adding a relation to the query's schema after fingerprinting changes
  the digest, to that of the same query over a fresh schema;
* a query pickled without the memo (or with it) loads and fingerprints
  identically;
* equal queries built separately get equal digests.
"""

from __future__ import annotations

import pickle

from repro.api import fingerprints
from repro.api.fingerprints import query_fingerprint
from repro.parser import parse_query, parse_schema

SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)"
QUERIES = (
    "Q1(e) :- EMP(e, s, d), DEP(d, l)",
    "Q2(e) :- EMP(e, s, d)",
    "Q3(e, l) :- EMP(e, 100, d), DEP(d, l), DEP(d, 'Paris')",
)
# Digests of the tenant above, computed before any memo existed.
QUERY_DIGESTS = (
    "e7f77adcb8b669174ed146e948a5a62983ac2d5e5310cb7179821a358201aa19",
    "9fed4522b9036b7a1d65f55d743211f1c4136cb9c81bf963aafc245450652374",
    "bb904d9daa45db1ac65a13769698908654ead099e78ed16fd2789370e31952c7",
)


def tenant():
    schema = parse_schema(SCHEMA)
    return schema, [parse_query(text, schema) for text in QUERIES]


class TestRenderOnce:
    def test_a_second_call_renders_nothing(self, monkeypatch):
        _, queries = tenant()
        rendered = []
        signature = fingerprints.conjunct_signature

        def counting(conjunct):
            rendered.append(conjunct)
            return signature(conjunct)

        monkeypatch.setattr(fingerprints, "conjunct_signature", counting)
        for _ in range(3):
            assert tuple(map(query_fingerprint, queries)) == QUERY_DIGESTS
            assert len(rendered) == sum(len(query) for query in queries)


class TestInvalidation:
    def test_add_relation_after_fingerprinting_changes_the_digest(self):
        schema, queries = tenant()
        assert query_fingerprint(queries[1]) == QUERY_DIGESTS[1]
        schema.add_relation("LOC", ["loc", "city"])
        changed = query_fingerprint(queries[1])
        fresh = parse_schema(SCHEMA + "\nLOC(loc, city)")
        assert changed != QUERY_DIGESTS[1]
        assert changed == query_fingerprint(parse_query(QUERIES[1], fresh))
        assert query_fingerprint(queries[1]) == changed


class TestPickles:
    def test_a_query_pickled_without_the_memo_loads_and_fingerprints(self):
        _, queries = tenant()
        query_fingerprint(queries[2])
        vars(queries[2]).pop("_digest")
        blob = pickle.dumps(queries[2])
        assert b"_digest" not in blob
        restored = pickle.loads(blob)
        assert "_digest" not in vars(restored)
        assert query_fingerprint(restored) == QUERY_DIGESTS[2]

    def test_a_pickled_memo_stays_consistent(self):
        _, queries = tenant()
        query_fingerprint(queries[0])
        restored = pickle.loads(pickle.dumps(queries[0]))
        assert query_fingerprint(restored) == QUERY_DIGESTS[0]
        restored.input_schema.add_relation("LOC", ["loc", "city"])
        fresh = parse_schema(SCHEMA + "\nLOC(loc, city)")
        assert (query_fingerprint(restored)
                == query_fingerprint(parse_query(QUERIES[0], fresh)))


class TestEquality:
    def test_equal_queries_built_separately_get_equal_digests(self):
        _, first = tenant()
        _, second = tenant()
        renamed = parse_query(QUERIES[2].replace("Q3", "R3"),
                              parse_schema(SCHEMA))
        for one, other in zip(first, second):
            assert one == other and one is not other
            assert query_fingerprint(one) == query_fingerprint(other)
        assert renamed == first[2]
        assert query_fingerprint(renamed) == QUERY_DIGESTS[2]
