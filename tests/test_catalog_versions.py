"""Each catalog version costs only what changed in it.

A tenant edits its view catalog one view at a time, and each version is
parsed by every front end that registers it and fingerprinted on every
rewrite that names it.  These tests pin the obligations that make a new
version cheap without changing any answer:

* view and catalog digests are byte-identical to those of the unmemoised
  code, so no stored cache key or registered fingerprint moves;
* a pool's thread shards read their pool's tenant parser, which reuses
  the view parsed from an identical line over the same schema object, so
  a version that adds one view parses one line and a rewrite by
  fingerprint parses no view at all;
* versions parsed by one parser share the derived parts (relation
  schema, index signature) of every view they have in common;
* :meth:`ViewCatalog.add` drops the catalog's memos, a caller's index
  built before the ``add`` is refused rather than probed, and views and
  catalogs pickled without them digest identically and build the
  missing parts on first use;
* threads sharing one evicting parser never see a ``KeyError`` and agree
  with a single thread.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
import time

import pytest

from repro.api.fingerprints import catalog_fingerprint, view_fingerprint
from repro.exceptions import ParseError, ViewError
from repro.parser import parse_query, parse_schema
from repro.parser import view_parser
from repro.parser.view_parser import parse_views
from repro.service import ShardedSolverPool, TenantParser
from repro.views.index import build_catalog_index, view_signature
from repro.views.rewriting import match_level, rewrite_with_views
from repro.views.view import View

SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)"
LINES = (
    "V1(e, d) :- EMP(e, s, d)",
    "V2(d, l) :- DEP(d, l)",
    "V3(e, l) :- EMP(e, s, d), DEP(d, l)",
)
EXTRA = "V4(e, s) :- EMP(e, s, d)"

# Digests of the catalog above, computed before views and catalogs
# memoised them.
VIEW_DIGESTS = {
    "V1": "ca41cfa25bcb2fbe218629f8d90daad837d9a3ce402d9941b72ba19cde8cbb63",
    "V2": "b0663e90db8d3736b06ef92b91058bad62d67be02a2f260c4a9145c9cd12116b",
    "V3": "a0445b86420a943bdd291514671f965e39c24ddc4d0a91e8df7684436f872145",
}
CATALOG_DIGEST = "f6e6391104d02ed0949e1de685ece94fdb91ce033200ddf9629cf1ce1eef7b8d"

#: How long the threads of the stress test hammer one parser.
STRESS_SECONDS = 2.0


def catalog():
    return parse_views("\n".join(LINES), parse_schema(SCHEMA))


def digests(views):
    return {view.name: view_fingerprint(view) for view in views}


@pytest.fixture
def view_parses(monkeypatch):
    """Every view line parsed from now on, from any thread."""
    parsed = []
    parse_view = view_parser.parse_view

    def counting(text, schema):
        parsed.append(text)
        return parse_view(text, schema)

    monkeypatch.setattr(view_parser, "parse_view", counting)
    return parsed


class TestPinnedDigests:
    def test_digests_match_the_unmemoised_code(self):
        views = catalog()
        for _ in range(2):  # the second pass reads the warm memos
            assert digests(views) == VIEW_DIGESTS
            assert catalog_fingerprint(views) == CATALOG_DIGEST

    def test_reused_views_digest_like_freshly_parsed_ones(self):
        parser = TenantParser()
        first = parser.catalog("\n".join(LINES), SCHEMA)
        reordered = parser.catalog("\n".join(reversed(LINES)), SCHEMA)
        assert [reordered.get(name) for name in first.names()] == list(first)
        assert catalog_fingerprint(reordered) == CATALOG_DIGEST
        assert digests(reordered) == VIEW_DIGESTS


class TestOneVersionParsesOnlyItsChange:
    def test_thread_pool_parses_new_lines_once(self, view_parses):
        version1 = "\n".join(LINES)
        version2 = "\n".join(LINES + (EXTRA,))
        version3 = "\n".join(line for line in LINES + (EXTRA,)
                             if not line.startswith("V2("))
        with ShardedSolverPool(shard_count=2, mode="thread") as pool:
            def put(views):
                envelope = pool.execute({"op": "catalog.put", "id": "put",
                                         "views": views, "schema": SCHEMA})
                assert envelope["ok"], envelope
                return envelope["result"]["fingerprint"]

            put(version1)
            assert len(view_parses) == len(LINES)
            del view_parses[:]
            put(version2)
            assert view_parses == [EXTRA]
            del view_parses[:]
            fingerprint = put(version3)
            assert view_parses == []
            rewrite = pool.execute({
                "op": "rewrite", "id": "r", "catalog_fp": fingerprint,
                "query": "Q(e, l) :- EMP(e, s, d), DEP(d, l)"})
            assert rewrite["ok"], rewrite
            assert rewrite["result"]["rewritings"]
            assert view_parses == []

    def test_a_line_that_fails_to_parse_is_never_interned(self):
        schema = parse_schema(SCHEMA)
        interned = {}
        bad = "V9(e, e) :- EMP(e, s, d)"
        with pytest.raises(ParseError, match="^line 2: invalid view definition"):
            parse_views(f"{LINES[0]}\n{bad}", schema, interned)
        assert list(interned) == [LINES[0]]

    def test_reuse_keeps_one_schema_object_per_catalog(self):
        parser = TenantParser(max_entries=2)
        first = parser.catalog("\n".join(LINES), SCHEMA)
        for filler in ("A(a)", "B(b)", "C(c)"):
            parser.schema(filler)  # evicts SCHEMA and its intern table
        second = parser.catalog("\n".join(LINES + (EXTRA,)), SCHEMA)
        assert second.base_schema is not first.base_schema
        assert all(view.base_schema is second.base_schema for view in second)
        assert catalog_fingerprint(second) != CATALOG_DIGEST

    def test_interned_views_live_as_long_as_a_catalog_holds_them(self):
        parser = TenantParser(max_entries=2)
        parser.catalog("\n".join(LINES), SCHEMA)
        _, interned = parser._schema_entry(SCHEMA)
        assert sorted(interned) == sorted(LINES)
        for index in range(2):  # evicts the catalog, not the schema
            parser.catalog(f"W{index}(e) :- EMP(e, s, d)", SCHEMA)
        gc.collect()
        assert not set(LINES) & set(interned)


class TestVersionsShareViewParts:
    def test_unchanged_views_share_relation_schemas_and_signatures(self):
        parser = TenantParser()
        first = parser.catalog("\n".join(LINES), SCHEMA)
        second = parser.catalog("\n".join(LINES[1:] + (EXTRA,)), SCHEMA)
        shared = ("V2", "V3")
        for name in shared:
            assert second.get(name) is first.get(name)
        first_schema, second_schema = (first.extended_schema(),
                                       second.extended_schema())
        first_index, second_index = first.index(), second.index()
        assert second_schema is not first_schema
        assert second_index is not first_index
        for name in shared:
            view = first.get(name)
            assert second_schema.relation(name) is view.relation_schema()
            assert first_schema.relation(name) is view.relation_schema()
            keys, pins = view_signature(view)
            for index in (first_index, second_index):
                assert index._required[name] is keys
                assert index._constants[name] is pins
        assert "V1" not in second_index.view_names
        assert second_index.view_names == ("V2", "V3", "V4")


class TestInvalidation:
    def test_add_after_memoising_matches_a_fresh_catalog(self):
        schema = parse_schema(SCHEMA)
        views = parse_views("\n".join(LINES[:2]), schema)
        catalog_fingerprint(views)
        extended = views.extended_schema()
        assert views.extended_schema() is extended
        views.add(View("V3", parse_query(LINES[2], schema)))
        fresh = catalog()
        assert catalog_fingerprint(views) == CATALOG_DIGEST
        assert views.extended_schema() == fresh.extended_schema()
        assert "V3" in views.extended_schema() and "V3" not in extended

    def test_add_clears_the_index(self):
        schema = parse_schema(SCHEMA)
        views = parse_views("\n".join(LINES[:2]), schema)
        index = views.index()
        assert views.index() is index
        views.add(View("V3", parse_query(LINES[2], schema)))
        assert views.index() is not index
        assert views.index().view_names == ("V1", "V2", "V3")
        assert index.view_names == ("V1", "V2")

    def test_add_clears_the_match_level(self):
        schema = parse_schema(SCHEMA)
        views = parse_views("\n".join(LINES[:2]), schema)
        assert match_level(views) == 2
        assert views._match_level == 2
        wide = "V5(e, l) :- EMP(e, s, d), DEP(d, l), DEP(d, m)"
        views.add(View("V5", parse_query(wide, schema)))
        assert views._match_level is None
        assert match_level(views) == 3

    def test_an_index_built_before_an_add_is_refused(self):
        schema = parse_schema(SCHEMA)
        views = parse_views(LINES[1], schema)
        stale = build_catalog_index(views)
        views.add(View("V1", parse_query(LINES[0], schema)))
        query = parse_query("Q(e, l) :- EMP(e, s, d), DEP(d, l)", schema)
        own = rewrite_with_views(query, views, strategy="bucketed")
        assert own.views_pruned == 0
        expected = [("V1",), ("V2",), ("V1", "V2")]
        assert [rewriting.view_names for rewriting in own.rewritings] == expected
        # Probing the stale index would prune V1 and drop two rewritings.
        with pytest.raises(ViewError, match="not built from this catalog"):
            rewrite_with_views(query, views, strategy="bucketed",
                               catalog_index=stale)
        # An index of the current views, or of an equal copy, is accepted.
        for index in (build_catalog_index(views),
                      build_catalog_index(parse_views(
                          "\n".join(LINES[1::-1]), parse_schema(SCHEMA)))):
            report = rewrite_with_views(query, views, strategy="bucketed",
                                        catalog_index=index)
            assert [rewriting.view_names
                    for rewriting in report.rewritings] == expected


class TestPickles:
    def test_views_and_catalogs_pickled_without_the_memos(self):
        """Payloads pickled before the memos existed, or before views and
        catalogs held their derived parts."""
        parts = ("_relation_schema", "_signature", "_index")
        for missing in (("_fingerprint", "_extended_schema") + parts, parts):
            views = catalog()
            catalog_fingerprint(views)
            views.extended_schema()
            views.index()
            for owner in (views, *views):
                for memo in missing:
                    vars(owner).pop(memo, None)
            blob = pickle.dumps(views)
            if "_fingerprint" in missing:
                assert (b"_fingerprint" not in blob
                        and b"_extended_schema" not in blob)
            restored = pickle.loads(blob)
            for owner in (restored, *restored):
                assert not set(missing) & set(vars(owner))
            assert digests(restored) == VIEW_DIGESTS
            assert catalog_fingerprint(restored) == CATALOG_DIGEST
            fresh = catalog()
            assert restored.extended_schema() == fresh.extended_schema()
            for view in restored:
                assert view.relation_schema() == fresh.get(view.name).relation_schema()
                assert view_signature(view) == view_signature(fresh.get(view.name))
            probe = parse_query(LINES[2], restored.base_schema).conjuncts
            assert restored.index().view_names == fresh.index().view_names
            assert restored.index().probe(probe) == fresh.index().probe(probe)
        single = pickle.loads(pickle.dumps(View("V1", parse_query(
            LINES[0], parse_schema(SCHEMA)))))
        assert view_fingerprint(single) == VIEW_DIGESTS["V1"]

    def test_pickled_memos_stay_consistent(self):
        views = catalog()
        catalog_fingerprint(views)
        views.extended_schema()
        views.index()
        restored = pickle.loads(pickle.dumps(views))
        assert catalog_fingerprint(restored) == CATALOG_DIGEST
        assert restored.index().view_names == ("V1", "V2", "V3")
        restored.add(View("V4", parse_query(EXTRA, restored.base_schema)))
        assert (catalog_fingerprint(restored) == catalog_fingerprint(
            parse_views("\n".join(LINES + (EXTRA,)), parse_schema(SCHEMA))))
        assert "V4" in restored.extended_schema()
        assert restored.index().view_names == ("V1", "V2", "V3", "V4")


class TestSharedParserUnderThreads:
    def test_threads_sharing_an_evicting_parser_agree_with_one_thread(self):
        schemas = [f"{SCHEMA}\nT{index}(a, b)" for index in range(3)]
        versions = ["\n".join(LINES[:count] + (EXTRA,))
                    for count in range(len(LINES) + 1)]
        keys = [(views, schema) for schema in schemas for views in versions]
        expected = {key: catalog_fingerprint(
            parse_views(key[0], parse_schema(key[1]))) for key in keys}
        parser = TenantParser(max_entries=2)  # evicts on every third text
        workers = 4 * (os.cpu_count() or 2)  # more threads than cores
        start = threading.Barrier(workers)
        failures = []
        mismatches = []

        def work(offset):
            try:
                start.wait(timeout=10)
                deadline = time.monotonic() + STRESS_SECONDS
                step = offset
                while time.monotonic() < deadline:
                    key = keys[step % len(keys)]
                    step += 1
                    parser.dependencies(None, key[1])
                    digest = catalog_fingerprint(parser.catalog(*key))
                    if digest != expected[key]:
                        mismatches.append(key)
            except Exception as error:  # reported by the asserts below
                failures.append(error)

        saved_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,), daemon=True)
                       for index in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert not mismatches
