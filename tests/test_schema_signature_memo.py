"""The schema's canonical text: rendered once per schema object, never stale.

Every fingerprint in :mod:`repro.api.fingerprints` embeds the schema's
canonical text, which :meth:`DatabaseSchema.signature_text` renders and
memoises on the schema.  These tests pin the memo's obligations:

* the digests are byte-identical to those of the unmemoised rendering,
  so no stored cache key or shard route moves;
* fingerprinting many queries over one schema renders its text once;
* :meth:`DatabaseSchema.add` drops the memo;
* a schema pickled before the memo existed unpickles without it and
  fingerprints identically, and racing first renders agree;
* the text identifies the schema: names holding one of its delimiters
  are refused, so two schemas with different signatures never render
  the same text.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest

from repro.api.fingerprints import (
    catalog_fingerprint,
    dependency_fingerprint,
    query_fingerprint,
    schema_fingerprint,
    schema_signature,
)
from repro.containment.serialization import schema_from_dict
from repro.exceptions import SchemaError
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.parser.view_parser import parse_views
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)"
QUERIES = (
    "Q1(e) :- EMP(e, s, d), DEP(d, l)",
    "Q2(e) :- EMP(e, s, d)",
    "Q3(e, l) :- EMP(e, 100, d), DEP(d, l), DEP(d, 'Paris')",
)

# Digests of the tenant above, computed before the text was memoised.
SCHEMA_DIGEST = "57b5e386930ca3d41c5e3de0309c356707bd478c180318154888c7d62a204faa"
QUERY_DIGESTS = (
    "e7f77adcb8b669174ed146e948a5a62983ac2d5e5310cb7179821a358201aa19",
    "9fed4522b9036b7a1d65f55d743211f1c4136cb9c81bf963aafc245450652374",
    "bb904d9daa45db1ac65a13769698908654ead099e78ed16fd2789370e31952c7",
)
DEPENDENCY_DIGEST = "fc5d5018fb67cbb82550491cf124f9e3ceec78757b9e65e63401f1c7c39dbd25"
CATALOG_DIGEST = "d15425e799eb95541d7440785d1aa8213e459efa98888184f2e6349a21c78048"
NO_SCHEMA_DIGEST = "3973e022e93220f9212c18d0d0c543ae7c309e46640da93a4a0314de999f5112"


def tenant():
    schema = parse_schema(SCHEMA)
    return schema, [parse_query(text, schema) for text in QUERIES]


class TestPinnedDigests:
    def test_digests_match_the_unmemoised_rendering(self):
        schema, queries = tenant()
        sigma = parse_dependencies(
            "EMP[dept] <= DEP[dept]\nDEP: dept -> loc", schema)
        catalog = parse_views(
            "V1(e, d) :- EMP(e, s, d)\nV2(d, l) :- DEP(d, l)", schema)
        for _ in range(2):  # the second pass reads the warm memo
            assert schema_signature(schema) == "EMP(emp,sal,dept);DEP(dept,loc)"
            assert schema_fingerprint(schema) == SCHEMA_DIGEST
            assert tuple(map(query_fingerprint, queries)) == QUERY_DIGESTS
            assert dependency_fingerprint(sigma) == DEPENDENCY_DIGEST
            assert catalog_fingerprint(catalog) == CATALOG_DIGEST
            assert schema_fingerprint(None) == NO_SCHEMA_DIGEST


class TestRenderOnce:
    def test_queries_over_one_schema_render_it_once(self, monkeypatch):
        schema, queries = tenant()
        catalog = parse_views("V1(e, d) :- EMP(e, s, d)", schema)
        renders = []
        signature = DatabaseSchema.signature

        def counting(target):
            renders.append(target)
            return signature(target)

        monkeypatch.setattr(DatabaseSchema, "signature", counting)
        for query in queries:
            query_fingerprint(query)
        schema_fingerprint(schema)
        catalog_fingerprint(catalog)
        assert renders == [schema]


class TestInvalidation:
    def test_add_after_fingerprinting_matches_a_fresh_schema(self):
        schema, queries = tenant()
        assert schema_fingerprint(schema) == SCHEMA_DIGEST
        assert query_fingerprint(queries[1]) == QUERY_DIGESTS[1]
        schema.add_relation("LOC", ["loc", "city"])
        fresh = parse_schema(SCHEMA + "\nLOC(loc, city)")
        assert schema_fingerprint(schema) == schema_fingerprint(fresh)
        assert schema_fingerprint(schema) != SCHEMA_DIGEST
        assert (query_fingerprint(queries[1])
                == query_fingerprint(parse_query(QUERIES[1], fresh)))


class TestPickles:
    def test_schema_pickled_without_the_memo_fingerprints_identically(self):
        """A cached query whose schema was pickled before the memo existed."""
        schema, queries = tenant()
        vars(schema).pop("_signature_text", None)
        blob = pickle.dumps(queries[0])
        assert b"_signature_text" not in blob
        restored = pickle.loads(blob)
        assert "_signature_text" not in vars(restored.input_schema)
        assert query_fingerprint(restored) == QUERY_DIGESTS[0]
        assert schema_fingerprint(restored.input_schema) == SCHEMA_DIGEST
        restored.input_schema.add_relation("LOC", ["loc", "city"])
        assert (schema_fingerprint(restored.input_schema)
                == schema_fingerprint(parse_schema(SCHEMA + "\nLOC(loc, city)")))

    def test_a_pickled_memo_stays_consistent(self):
        schema, _ = tenant()
        schema_fingerprint(schema)
        restored = pickle.loads(pickle.dumps(schema))
        assert schema_fingerprint(restored) == SCHEMA_DIGEST
        restored.add_relation("LOC", ["loc", "city"])
        assert (schema_fingerprint(restored)
                == schema_fingerprint(parse_schema(SCHEMA + "\nLOC(loc, city)")))


class TestTextIdentifiesTheSchema:
    def test_a_delimiter_in_a_name_is_refused(self):
        # One attribute "a,b" would render R(a,b) like attributes a and b,
        # though the two signatures differ.
        with pytest.raises(SchemaError, match="contains one of"):
            DatabaseSchema.from_dict({"R": ["a,b"]})
        split = DatabaseSchema.from_dict({"R": ["a", "b"]})
        assert split.signature() == (("R", ("a", "b")),)
        assert split.signature_text() == "R(a,b)"
        for relation, attributes in (("R(x", ["a"]), ("R)", ["a"]),
                                     ("R,S", ["a"]), ("R;S", ["a"]),
                                     ("R", ["a("]), ("R", ["a)"]),
                                     ("R", ["b", "a;S(c"])):
            with pytest.raises(SchemaError):
                RelationSchema(relation, attributes)
            with pytest.raises(SchemaError):
                schema_from_dict({"relations": [
                    {"name": relation, "attributes": attributes}]})

    def test_the_pinned_digests_still_hold(self):
        schema, queries = tenant()
        assert schema_fingerprint(schema) == SCHEMA_DIGEST
        assert tuple(map(query_fingerprint, queries)) == QUERY_DIGESTS


class TestConcurrentFirstRender:
    def test_racing_threads_agree_on_a_fresh_schemas_digest(self):
        spec = "\n".join(f"R{i}(a{i}, b{i}, c{i})" for i in range(300))
        expected = schema_fingerprint(parse_schema(spec))
        workers = 4 * (os.cpu_count() or 2)  # more threads than cores
        saved_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                schema = parse_schema(spec)  # a cold memo every round
                start = threading.Barrier(workers)
                digests = []

                def fingerprint():
                    start.wait(timeout=10)
                    digests.append(schema_fingerprint(schema))

                threads = [threading.Thread(target=fingerprint, daemon=True)
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert digests == [expected] * workers
        finally:
            sys.setswitchinterval(saved_interval)
