"""Tests for the service layer: persistence, protocol, routing, serving.

Covers the four satellite requirements of PR 4: ServiceClient
round-trips for containment/chase/rewrite, shard-routing determinism,
persistent-cache reuse across a simulated restart, and malformed-request
error envelopes — plus the protocol/pool/persistent plumbing they sit
on.
"""

from __future__ import annotations

import json
import re
import socket
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.api import (
    ContainmentRequest,
    PersistentCache,
    Solver,
    SolverConfig,
)
from repro.api.persistent import PersistentCacheError, stable_key_digest
from repro.chase.engine import ChaseVariant
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceClientError,
    ServiceDefaults,
    ServiceLimits,
    ShardedSolverPool,
    SolverService,
    TenantParser,
    handle_record,
    parse_line,
    routing_fingerprints,
    shard_for,
    validate_record,
)
from repro.service.protocol import OPS
from repro.workloads import TrafficGenerator

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"
VIEWS_TEXT = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"


def contain_record(**overrides):
    record = {"id": "q1", "query": QUERY, "query_prime": QUERY_PRIME,
              "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}
    record.update(overrides)
    return record


# ---------------------------------------------------------------------------
# PersistentCache
# ---------------------------------------------------------------------------


class TestPersistentCache:
    def test_roundtrip_and_counters(self, tmp_path):
        with PersistentCache(str(tmp_path / "c.sqlite")) as cache:
            key = ("a", 1, None, True, ChaseVariant.RESTRICTED)
            assert cache.get("chase", key) is None
            cache.put("chase", key, {"payload": [1, 2, 3]})
            assert cache.get("chase", key) == {"payload": [1, 2, 3]}
            info = cache.info()
            assert (info.hits, info.misses, info.size) == (1, 1, 1)
            assert cache.sizes() == {"containment": 0, "chase": 1, "rewrite": 0}

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with PersistentCache(path) as cache:
            cache.put("containment", ("k",), "answer")
        with PersistentCache(path) as reopened:
            assert reopened.get("containment", ("k",)) == "answer"
            assert len(reopened) == 1

    def test_corrupt_value_becomes_miss_and_is_evicted(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentCache(path)
        cache.put("chase", ("k",), "value")
        digest = stable_key_digest(("k",))
        with cache._connection:
            cache._connection.execute(
                "UPDATE entries SET value = ? WHERE key = ?",
                (b"not a pickle", digest))
        assert cache.get("chase", ("k",)) is None
        assert len(cache) == 0
        cache.close()

    def test_format_version_mismatch_clears_store(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentCache(path)
        cache.put("chase", ("k",), "value")
        with cache._connection:
            cache._connection.execute(
                "UPDATE meta SET value = '0' WHERE key = 'format_version'")
        cache.close()
        with PersistentCache(path) as reopened:
            assert reopened.get("chase", ("k",)) is None
            assert len(reopened) == 0

    def test_stable_key_digest(self):
        key = (("Q", "abc"), None, True, 5, ChaseVariant.OBLIVIOUS)
        assert stable_key_digest(key) == stable_key_digest(
            (("Q", "abc"), None, True, 5, ChaseVariant.OBLIVIOUS))
        assert stable_key_digest(key) != stable_key_digest(key[:-1])
        # bool/int and str/bytes must not collide
        assert stable_key_digest((1,)) != stable_key_digest((True,))
        assert stable_key_digest(("a",)) != stable_key_digest((b"a",))
        with pytest.raises(PersistentCacheError):
            stable_key_digest((object(),))

    def test_clear(self, tmp_path):
        with PersistentCache(str(tmp_path / "c.sqlite")) as cache:
            cache.put("rewrite", ("k",), "v")
            cache.clear()
            assert len(cache) == 0


class TestSolverPersistence:
    def make_queries(self):
        schema = parse_schema(SCHEMA_TEXT)
        sigma = parse_dependencies(DEPS_TEXT, schema)
        return (parse_query(QUERY, schema), parse_query(QUERY_PRIME, schema),
                sigma)

    def test_warm_restart(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        first = Solver(config)
        cold = first.solve(ContainmentRequest(query, query_prime, sigma))
        assert cold.result.holds and not cold.cache_hit
        first.close()

        restarted = Solver(config)
        warm = restarted.solve(ContainmentRequest(query, query_prime, sigma))
        assert warm.cache_hit
        assert warm.result.holds == cold.result.holds
        assert warm.result.method == cold.result.method
        restarted.close()

    def test_cache_stats_includes_persistent(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        solver = Solver(config)
        solver.is_contained(query, query_prime, sigma)
        stats = solver.cache_stats()
        assert stats["persistent"]["writes"] > 0
        assert stats["persistent"]["namespaces"]["containment"] == 1
        # a second solver over the same store reports the hit both in the
        # persistent entry and in the rolled-up total
        solver.close()
        second = Solver(config)
        second.is_contained(query, query_prime, sigma)
        stats = second.cache_stats()
        assert stats["persistent"]["hits"] == 1
        assert stats["total"]["hits"] >= 1
        second.close()

    def test_without_persistence_no_entry(self):
        stats = Solver().cache_stats()
        assert "persistent" not in stats
        assert set(stats) == {"containment", "chase", "rewrite", "total"}

    def test_clear_caches_can_wipe_store(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        solver = Solver(config)
        solver.is_contained(query, query_prime, sigma)
        assert len(solver.persistent_cache) > 0
        solver.clear_caches(persistent=True)
        assert len(solver.persistent_cache) == 0
        solver.close()

    def test_shared_store_between_solvers(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        store = PersistentCache(str(tmp_path / "shared.sqlite"))
        writer = Solver(persistent_cache=store)
        reader = Solver(persistent_cache=store)
        writer.is_contained(query, query_prime, sigma)
        writer_totals = writer.cache_stats()["total"].copy()
        response = reader.solve(ContainmentRequest(query, query_prime, sigma))
        assert response.cache_hit
        # the reader's disk hit is its own: per-solver persistent
        # counters, not the store's globals, feed each solver's totals
        assert writer.cache_stats()["total"] == writer_totals
        reader_stats = reader.cache_stats()["persistent"]
        assert reader_stats["hits"] == 1 and reader_stats["misses"] == 0
        assert reader_stats["store"]["hits"] == 1
        # close() must not steal the shared store from its sibling
        writer.close()
        assert reader.solve(ContainmentRequest(query, query_prime, sigma)).result.holds
        store.close()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_line_defaults_to_contain(self):
        record = parse_line(json.dumps({"query": QUERY, "query_prime": QUERY_PRIME}))
        assert record["op"] == "contain"

    @pytest.mark.parametrize("line, kind", [
        ("", "protocol"),
        ("not json", "protocol"),
        ("[1, 2]", "protocol"),
        (json.dumps({"op": "nope"}), "protocol"),
        (json.dumps({"op": "contain", "query": QUERY}), "protocol"),
        (json.dumps({"op": "chase"}), "protocol"),
        (json.dumps({"op": "rewrite", "query": QUERY}), "protocol"),
        (json.dumps({"op": "chase", "query": 7}), "protocol"),
        (json.dumps({"op": "chase", "query": QUERY, "max_level": "x"}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "max_level": 0}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "max_conjuncts": True}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "variant": "Z"}), "protocol"),
    ])
    def test_parse_line_rejects(self, line, kind):
        with pytest.raises(ProtocolError) as excinfo:
            parse_line(line)
        assert excinfo.value.kind == kind

    def test_readme_ops_table_lists_every_op_and_tier(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([a-z.]+)` \| (user|admin) \|[^|]*\| (yes|no) \|$",
                          readme.read_text(encoding="utf-8"), re.MULTILINE)
        assert [(name, tier, retried == "yes") for name, tier, retried in rows] == [
            (op.name, op.available_for, op.retry) for op in OPS.values()]

    def test_handle_record_never_raises(self):
        solver = Solver()
        # schema text that does not parse → parse-kind envelope
        envelope = handle_record(contain_record(schema="NOT A SCHEMA(("), solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"
        # structurally bad record → protocol-kind envelope
        envelope = handle_record({"op": "contain"}, solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"
        # no schema anywhere → protocol-kind envelope
        envelope = handle_record({"query": QUERY, "query_prime": QUERY_PRIME},
                                 solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"

    def test_handle_contain_matches_direct_solver(self):
        solver = Solver()
        envelope = handle_record(contain_record(), solver, shard=3)
        assert envelope["ok"] and envelope["op"] == "contain"
        assert envelope["shard"] == 3 and envelope["id"] == "q1"
        schema = parse_schema(SCHEMA_TEXT)
        direct = Solver().is_contained(
            parse_query(QUERY, schema), parse_query(QUERY_PRIME, schema),
            parse_dependencies(DEPS_TEXT, schema))
        assert envelope["result"]["holds"] == direct.holds
        assert envelope["result"]["method"] == direct.method

    def test_handle_chase_and_rewrite(self):
        solver = Solver()
        chase = handle_record({"op": "chase", "query": QUERY,
                               "schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                               "max_level": 3, "variant": "O"}, solver)
        assert chase["ok"] and chase["result"]["variant"] == "O"
        assert chase["result"]["max_level"] >= 1
        rewrite = handle_record({"op": "rewrite", "query": QUERY_PRIME,
                                 "views": VIEWS_TEXT, "schema": SCHEMA_TEXT,
                                 "deps": DEPS_TEXT}, solver)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]

    def test_defaults_supply_schema(self):
        defaults = ServiceDefaults(schema_text=SCHEMA_TEXT, deps_text=DEPS_TEXT)
        envelope = handle_record({"query": QUERY, "query_prime": QUERY_PRIME},
                                 Solver(), defaults)
        assert envelope["ok"] and envelope["result"]["holds"]

    def test_budget_clamped_to_limits(self):
        limits = ServiceLimits(max_conjuncts=50, max_level=2)
        envelope = handle_record(
            {"op": "chase", "query": QUERY, "schema": SCHEMA_TEXT,
             "deps": DEPS_TEXT, "max_level": 99, "max_conjuncts": 10 ** 9},
            Solver(), limits=limits)
        assert envelope["ok"]
        assert envelope["result"]["max_level"] <= 2

    def test_ping_and_stats(self):
        solver = Solver()
        assert handle_record({"op": "ping"}, solver)["result"]["pong"]
        stats = handle_record({"op": "stats"}, solver)["result"]
        assert "cache_stats" in stats and "requests" in stats


# ---------------------------------------------------------------------------
# Shard routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_shard_for_is_deterministic_and_in_range(self):
        assert shard_for("a", "b", 4) == shard_for("a", "b", 4)
        for count in (1, 2, 7):
            assert 0 <= shard_for("a", "b", count) < count
        with pytest.raises(ValueError):
            shard_for("a", "b", 0)

    def test_routing_fingerprints_track_tenant(self):
        parser = TenantParser()
        defaults = ServiceDefaults()
        base = routing_fingerprints(contain_record(), defaults, parser)
        same = routing_fingerprints(contain_record(id="other"), defaults, parser)
        assert base == same
        other_deps = routing_fingerprints(contain_record(deps=None), defaults,
                                          parser)
        assert other_deps != base

    def test_tenants_spread_and_pin(self):
        traffic = TrafficGenerator(tenant_count=12, seed=5)
        with ShardedSolverPool(shard_count=4, mode="inline") as pool:
            routes = {}
            for record in traffic.requests(60, stream_seed=0):
                tenant = record["id"].split("/", 1)[0]
                routes.setdefault(tenant, set()).add(
                    pool.shard_for_record(record))
        assert all(len(shards) == 1 for shards in routes.values())
        assert len({next(iter(s)) for s in routes.values()}) > 1

    def test_control_ops_route_to_shard_zero(self):
        with ShardedSolverPool(shard_count=3, mode="inline") as pool:
            assert pool.execute({"op": "ping"})["shard"] == 0
            assert pool.execute({"op": "stats"})["shard"] == 0


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class TestShardedSolverPool:
    def test_inline_and_thread_agree(self):
        records = [contain_record(id=str(index)) for index in range(4)]
        records.append({"op": "chase", "query": QUERY, "schema": SCHEMA_TEXT,
                        "deps": DEPS_TEXT, "max_level": 2, "id": "c"})
        with ShardedSolverPool(shard_count=2, mode="inline") as inline_pool:
            inline = inline_pool.execute_all(records)
        with ShardedSolverPool(shard_count=2, mode="thread") as thread_pool:
            threaded = thread_pool.execute_all(records)
        for first, second in zip(inline, threaded):
            assert first["ok"] and second["ok"]
            assert first["result"] == second["result"]
            assert first["shard"] == second["shard"]

    def test_process_mode_round_trip(self):
        with ShardedSolverPool(shard_count=2, mode="process") as pool:
            envelope = pool.execute(contain_record())
            assert envelope["ok"] and envelope["result"]["holds"]
            stats = pool.stats()
            assert stats["mode"] == "process"
            assert len(stats["shards"]) == 2

    def test_execute_all_preserves_order(self):
        records = [contain_record(id=f"r{index}") for index in range(6)]
        with ShardedSolverPool(shard_count=3, mode="thread") as pool:
            envelopes = pool.execute_all(records)
        assert [envelope["id"] for envelope in envelopes] == [
            record["id"] for record in records]

    def test_invalid_construction(self):
        from repro.exceptions import ReproError
        with pytest.raises(ReproError):
            ShardedSolverPool(shard_count=0)
        with pytest.raises(ReproError):
            ShardedSolverPool(mode="quantum")
        with pytest.raises(ReproError):
            ShardedSolverPool(max_pending=0)

    def test_explicit_and_bad_routing(self):
        from repro.exceptions import ReproError
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            assert pool.execute(contain_record(), routing=1)["shard"] == 1
            with pytest.raises(ReproError):
                pool.execute(contain_record(), routing=9)
            with pytest.raises(ReproError):
                pool.execute(contain_record(), routing="psychic")


# ---------------------------------------------------------------------------
# Server + client (the full wire)
# ---------------------------------------------------------------------------


@pytest.fixture()
def served_pool(tmp_path):
    """A thread-sharded service on a Unix socket, plus a connected client."""
    socket_path = str(tmp_path / "repro.sock")
    pool = ShardedSolverPool(shard_count=2, mode="thread")
    service = SolverService(pool, unix_path=socket_path)
    with service.run_in_thread():
        with ServiceClient(unix_path=socket_path) as client:
            yield pool, client, socket_path
    pool.close()


class TestServiceWire:
    def test_round_trips(self, served_pool):
        _, client, _ = served_pool
        assert client.ping()

        contain = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT,
                                 deps=DEPS_TEXT, identifier="w1")
        assert contain["ok"] and contain["result"]["holds"]
        assert contain["id"] == "w1" and "shard" in contain

        # the repeat is answered by the same shard's cache
        repeat = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT,
                                deps=DEPS_TEXT)
        assert repeat["cache_hit"] and repeat["shard"] == contain["shard"]

        chase = client.chase(QUERY, schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                             max_level=3)
        assert chase["ok"] and chase["result"]["statistics"]["total_steps"] >= 0

        rewrite = client.rewrite(QUERY_PRIME, VIEWS_TEXT, schema=SCHEMA_TEXT,
                                 deps=DEPS_TEXT)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]

        without_deps = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT)
        assert without_deps["ok"] and not without_deps["result"]["holds"]

    def test_malformed_requests_get_error_envelopes(self, served_pool):
        _, client, socket_path = served_pool
        envelope = client.request({"op": "contain", "query": QUERY})
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"

        envelope = client.request({"id": "bad", "op": "mystery"})
        assert not envelope["ok"] and envelope["id"] == "bad"

        envelope = client.contain("Q(x :- broken(", QUERY_PRIME,
                                  schema=SCHEMA_TEXT)
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"

        # unparsable *schema* text fails on the front end (during shard
        # routing, before any worker runs) — still kind "parse", not
        # "internal": it is a client input problem either way
        envelope = client.contain(QUERY, QUERY_PRIME,
                                  schema="this is :::: not a schema")
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"

        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(socket_path)
        raw.sendall(b"this is not json\n")
        reply = json.loads(raw.makefile().readline())
        raw.close()
        assert not reply["ok"] and reply["error"]["kind"] == "protocol"
        with pytest.raises(ServiceClientError):
            ServiceClient.check(reply)

    def test_stats_merges_all_shards(self, served_pool):
        pool, client, _ = served_pool
        client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        stats = client.stats()
        assert stats["pool"]["shard_count"] == pool.shard_count
        assert len(stats["shards"]) == pool.shard_count
        assert all("cache_stats" in shard for shard in stats["shards"])

    def test_stats_answers_internal_when_a_shard_fails(self, served_pool,
                                                         monkeypatch):
        pool, client, _ = served_pool

        def failing_submit(record):
            future = Future()
            future.set_exception(RuntimeError("shard exploded"))
            return future

        monkeypatch.setattr(pool.shards[1], "submit", failing_submit)
        assert client.request({"op": "stats", "id": "s1"}) == {
            "id": "s1", "ok": False,
            "error": {"kind": "internal",
                      "message": "RuntimeError: shard exploded"}}
        assert client.ping()  # the connection survives

    @pytest.mark.parametrize("op", [["ping"], {"name": "ping"}])
    def test_non_string_op_gets_the_servers_unknown_op_envelope(self, served_pool,
                                                                 op):
        _, client, _ = served_pool
        envelope = client.request({"id": "o1", "op": op})
        assert envelope["id"] == "o1" and not envelope["ok"]
        assert envelope["error"]["kind"] == "protocol"
        assert envelope["error"]["message"].startswith(f"unknown op {op!r}; ")

    def test_admission_control_rejects_when_full(self, tmp_path):
        socket_path = str(tmp_path / "busy.sock")
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, unix_path=socket_path, max_pending=0)
        with service.run_in_thread():
            with ServiceClient(unix_path=socket_path) as client:
                envelope = client.request(contain_record())
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "overloaded"
                # control plane ops stay answerable under load shedding
                assert client.ping()
        pool.close()

    def test_tcp_transport(self):
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, host="127.0.0.1", port=0)
        with service.run_in_thread() as handle:
            _, (host, port) = handle.address
            with ServiceClient(host=host, port=port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert envelope["ok"] and envelope["result"]["holds"]
        pool.close()

    def test_server_side_defaults(self, tmp_path):
        socket_path = str(tmp_path / "defaults.sock")
        defaults = ServiceDefaults(schema_text=SCHEMA_TEXT, deps_text=DEPS_TEXT)
        pool = ShardedSolverPool(shard_count=1, mode="inline", defaults=defaults)
        service = SolverService(pool, unix_path=socket_path)
        with service.run_in_thread():
            with ServiceClient(unix_path=socket_path) as client:
                envelope = client.contain(QUERY, QUERY_PRIME)
                assert envelope["ok"] and envelope["result"]["holds"]
        pool.close()

    def test_persistent_reuse_across_service_restart(self, tmp_path):
        socket_path = str(tmp_path / "persist.sock")
        config = SolverConfig(
            persistent_cache_path=str(tmp_path / "service.sqlite"))

        def one_lifetime():
            pool = ShardedSolverPool(shard_count=2, mode="thread", config=config)
            service = SolverService(pool, unix_path=socket_path)
            with service.run_in_thread():
                with ServiceClient(unix_path=socket_path) as client:
                    envelope = client.contain(QUERY, QUERY_PRIME,
                                              schema=SCHEMA_TEXT,
                                              deps=DEPS_TEXT)
            pool.close()
            return envelope

        cold = one_lifetime()
        assert cold["ok"] and not cold["cache_hit"]
        warm = one_lifetime()
        assert warm["ok"] and warm["cache_hit"]
        assert warm["result"]["holds"] == cold["result"]["holds"]


# ---------------------------------------------------------------------------
# Traffic generation
# ---------------------------------------------------------------------------


class TestTrafficGenerator:
    def test_deterministic_streams(self):
        first = TrafficGenerator(tenant_count=5, seed=9).requests(25)
        second = TrafficGenerator(tenant_count=5, seed=9).requests(25)
        assert first == second
        different = TrafficGenerator(tenant_count=5, seed=9).requests(
            25, stream_seed=1)
        assert different != first

    def test_records_validate_and_execute(self):
        traffic = TrafficGenerator(tenant_count=3, seed=4)
        records = traffic.requests(12)
        for record in records:
            validate_record(record)
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            envelopes = pool.execute_all(records)
        assert all(envelope["ok"] for envelope in envelopes)
        # known-positive containment pairs must actually hold
        for record, envelope in zip(records, envelopes):
            if record["op"] == "contain":
                assert envelope["result"]["holds"]

    def test_zipf_skew(self):
        traffic = TrafficGenerator(tenant_count=6, seed=3)
        shares = traffic.tenant_shares(traffic.requests(300))
        assert shares["tenant-0"] == max(shares.values())
        assert shares["tenant-0"] > 1.5 * shares["tenant-5"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_mix_controls_ops(self):
        traffic = TrafficGenerator(tenant_count=2, seed=1)
        records = traffic.requests(10, mix={"chase": 1.0})
        assert {record["op"] for record in records} == {"chase"}
        with pytest.raises(ValueError):
            traffic.requests(5, mix={"dance": 1.0})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TrafficGenerator(tenant_count=0)
        with pytest.raises(ValueError):
            TrafficGenerator(zipf_exponent=0)
        with pytest.raises(ValueError):
            TrafficGenerator(tenant_count=2).requests(-1)


# ---------------------------------------------------------------------------
# PR 5 hardening: construction-time validation and UTF-8 handling
# ---------------------------------------------------------------------------


class TestStartupValidation:
    """Misconfigured front ends must fail at startup, not per request."""

    def test_pool_rejects_non_positive_shard_count(self):
        from repro.exceptions import ReproError
        for count in (0, -1):
            with pytest.raises(ReproError):
                ShardedSolverPool(shard_count=count, mode="inline")

    def test_service_limits_reject_non_positive_ceilings(self):
        from repro.exceptions import ReproError
        with pytest.raises(ReproError):
            ServiceLimits(max_conjuncts=0)
        with pytest.raises(ReproError):
            ServiceLimits(max_conjuncts=-5)
        with pytest.raises(ReproError):
            ServiceLimits(max_level=0)
        assert ServiceLimits(max_conjuncts=10, max_level=1).max_level == 1

    def test_server_rejects_negative_max_pending(self):
        from repro.exceptions import ReproError
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        with pytest.raises(ReproError):
            SolverService(pool, max_pending=-1)
        pool.close()

    def test_cli_serve_with_bad_shards_exits_with_error(self, capsys):
        from repro.cli import main
        assert main(["serve", "--shards", "0", "--port", "0"]) == 2
        assert "shard_count" in capsys.readouterr().err


class TestInvalidUTF8Requests:
    def test_invalid_utf8_line_gets_protocol_envelope(self, tmp_path):
        """Invalid UTF-8 must not be silently mangled by errors='replace'
        and routed as if it were valid tenant text."""
        socket_path = str(tmp_path / "utf8.sock")
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, unix_path=socket_path)
        with service.run_in_thread():
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(socket_path)
            try:
                # A contain record whose deps text carries an invalid byte.
                payload = (b'{"id": "bad", "query": "Q(e) :- EMP(e, s, d)", '
                           b'"query_prime": "Q(e) :- EMP(e, s, d)", '
                           b'"schema": "EMP(emp, sal, dept)", '
                           b'"deps": "EMP: emp -> \xff sal"}\n')
                raw.sendall(payload)
                buffered = raw.makefile("rb")
                envelope = json.loads(buffered.readline())
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"
                assert "UTF-8" in envelope["error"]["message"]
                # The connection survives; a valid request still answers.
                raw.sendall((json.dumps(contain_record()) + "\n").encode("utf-8"))
                follow_up = json.loads(buffered.readline())
                assert follow_up["ok"] and follow_up["result"]["holds"]
            finally:
                raw.close()
        pool.close()


# ---------------------------------------------------------------------------
# Catalog registration (PR 10): catalog.put/list/drop + rewrite-by-fp
# ---------------------------------------------------------------------------


class TestCatalogStore:
    def test_put_get_drop_round_trip(self):
        from repro.service import CatalogStore
        store = CatalogStore()
        parser = TenantParser()
        entry = store.put(VIEWS_TEXT, SCHEMA_TEXT, parser, name="intro")
        assert entry["view_count"] == 1 and entry["name"] == "intro"
        assert not entry["replaced"]
        assert store.get(entry["fingerprint"])["views_text"] == VIEWS_TEXT
        assert len(store) == 1
        # Re-putting the same catalog replaces in place.
        again = store.put(VIEWS_TEXT, SCHEMA_TEXT, parser)
        assert again["fingerprint"] == entry["fingerprint"]
        assert again["replaced"] and len(store) == 1
        assert store.drop(entry["fingerprint"])
        assert not store.drop(entry["fingerprint"])
        assert len(store) == 0

    def test_fingerprint_matches_the_client_side_computation(self):
        from repro.api.fingerprints import catalog_fingerprint
        from repro.parser.view_parser import parse_views
        from repro.service import CatalogStore
        store = CatalogStore()
        entry = store.put(VIEWS_TEXT, SCHEMA_TEXT, TenantParser())
        local = catalog_fingerprint(
            parse_views(VIEWS_TEXT, parse_schema(SCHEMA_TEXT)))
        assert entry["fingerprint"] == local

    def test_empty_catalog_is_rejected(self):
        from repro.service import CatalogStore
        with pytest.raises(ProtocolError):
            CatalogStore().put("", SCHEMA_TEXT, TenantParser())

    def test_store_is_bounded(self):
        from repro.service import CatalogStore
        store = CatalogStore(max_entries=4)
        parser = TenantParser()
        for index in range(9):
            views = f"V{index}(e, s, d) :- EMP(e, s, d)"
            store.put(views, SCHEMA_TEXT, parser)
        assert len(store) <= 4

    def test_re_registering_refreshes_the_entry(self):
        # A re-put catalog is the newest entry: eviction drops catalogs
        # registered after its first put before it drops the re-put one.
        from repro.service import CatalogStore
        store = CatalogStore(max_entries=4)
        parser = TenantParser()

        def put(name):
            return store.put(f"{name}(e, s, d) :- EMP(e, s, d)", SCHEMA_TEXT,
                             parser)

        first = put("A")
        for name in ("V0", "V1", "V2"):
            put(name)
        again = put("A")
        assert again["replaced"] and again["fingerprint"] == first["fingerprint"]
        assert [row["fingerprint"] for row in store.rows()][-1] == (
            first["fingerprint"])
        put("VZ")  # the fifth entry evicts the oldest half
        assert store.get(first["fingerprint"]) is not None
        assert len(store) == 3

    def test_validate_record_accepts_catalog_ops(self):
        validate_record({"op": "catalog.put", "views": VIEWS_TEXT,
                         "schema": SCHEMA_TEXT})
        validate_record({"op": "catalog.list"})
        validate_record({"op": "catalog.drop", "catalog_fp": "abc"})
        with pytest.raises(ProtocolError):
            validate_record({"op": "catalog.put"})  # views missing
        with pytest.raises(ProtocolError):
            validate_record({"op": "catalog.drop"})  # catalog_fp missing
        # rewrite needs views OR catalog_fp — neither is a protocol error
        validate_record({"op": "rewrite", "query": QUERY,
                         "catalog_fp": "abc"})
        with pytest.raises(ProtocolError):
            validate_record({"op": "rewrite", "query": QUERY})


class TestCatalogService:
    def test_pool_round_trip_and_rewrite_by_fp(self, served_pool):
        pool, client, _ = served_pool
        put = client.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT,
                                 name="intro", identifier="cp1")
        assert put["ok"] and put["id"] == "cp1"
        fingerprint = put["result"]["fingerprint"]
        assert put["result"]["view_count"] == 1

        listed = client.catalog_list()
        assert listed["ok"]
        assert [row["fingerprint"] for row in listed["result"]["catalogs"]] \
            == [fingerprint]

        # Rewrite referencing the registered catalog by fingerprint only.
        rewrite = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                                 schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]
        assert pool.counters()["catalogs"] == 1

        dropped = client.catalog_drop(fingerprint)
        assert dropped["ok"] and dropped["result"]["dropped"]
        gone = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                              schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        assert not gone["ok"] and gone["error"]["kind"] == "protocol"
        assert "catalog.put" in gone["error"]["message"]

    def test_per_record_strategy_selects_the_rewriter(self, served_pool):
        _, client, _ = served_pool
        put = client.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
        fingerprint = put["result"]["fingerprint"]
        for strategy in ("exhaustive", "bucketed"):
            envelope = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                                      schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                                      strategy=strategy)
            assert envelope["ok"], strategy
            assert envelope["result"]["strategy"] == strategy
            assert envelope["result"]["rewritings"]
        bad = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                             schema=SCHEMA_TEXT, strategy="nope")
        assert not bad["ok"] and bad["error"]["kind"] == "parse"

    def test_rewrite_certification_gets_the_level_ceiling(self, monkeypatch):
        # As for contain: the record's max_level, capped by the service's.
        caps = []
        certify = Solver._certify

        def spy_certify(self, query, query_prime, sigma, config, *matching):
            caps.append(config.saturation_level_cap)
            return certify(self, query, query_prime, sigma, config, *matching)

        monkeypatch.setattr(Solver, "_certify", spy_certify)
        record = {"op": "rewrite", "id": "rw", "query": QUERY_PRIME,
                  "views": VIEWS_TEXT, "schema": SCHEMA_TEXT,
                  "deps": DEPS_TEXT}
        with ShardedSolverPool(shard_count=1, mode="inline",
                               limits=ServiceLimits(max_level=2)) as pool:
            ceiling = pool.execute(record)
            ceiling_caps = list(caps)
            caps.clear()
            lower = pool.execute(dict(record, max_level=1))
            higher = pool.execute(dict(record, max_level=9))
        assert ceiling["ok"] and ceiling["result"]["rewritings"]
        assert lower["ok"] and higher["ok"]
        assert ceiling_caps and set(ceiling_caps) == {2}
        # max_level 9 is capped to the ceiling, so it reuses the first
        # answer; only max_level 1 certifies again.
        assert higher["cache_hit"]
        assert caps and set(caps) == {1}

    def test_rewrite_matching_chase_gets_the_conjunct_ceiling(self, monkeypatch):
        # As for chase: the session's chase budget, cut to the record's
        # max_conjuncts, capped by the service's.
        budgets = []
        cached_chase = Solver._cached_chase

        def spy_chase(self, query, dependencies, config):
            if query.name == "Q1":
                budgets.append(config.max_conjuncts)
            return cached_chase(self, query, dependencies, config)

        monkeypatch.setattr(Solver, "_cached_chase", spy_chase)
        record = {"op": "rewrite", "id": "rw", "query": QUERY_PRIME,
                  "views": VIEWS_TEXT, "schema": SCHEMA_TEXT,
                  "deps": DEPS_TEXT}
        with ShardedSolverPool(shard_count=1, mode="inline") as pool:
            assert pool.execute(record)["ok"]
        assert budgets == [SolverConfig().chase_max_conjuncts]
        budgets.clear()
        with ShardedSolverPool(shard_count=1, mode="inline",
                               limits=ServiceLimits(max_conjuncts=40)) as pool:
            ceiling = pool.execute(record)
            lower = pool.execute(dict(record, max_conjuncts=3))
        assert ceiling["ok"] and ceiling["result"]["rewritings"]
        assert lower["ok"]
        assert budgets == [40, 3]

    def test_rewrite_matching_chase_gets_the_level_ceiling(self, monkeypatch):
        # As for chase: the record's max_level, capped by the service's,
        # bounds the matching chase whenever it is below the catalog's
        # match level (its largest view body, here three atoms).
        levels = []
        cached_chase = Solver._cached_chase

        def spy_chase(self, query, dependencies, config):
            result, hit = cached_chase(self, query, dependencies, config)
            levels.append((config.max_level, result.max_level()))
            return result, hit

        monkeypatch.setattr(Solver, "_cached_chase", spy_chase)
        views = VIEWS_TEXT + "\nDEPT_PAIR(e, f) :- EMP(e, s, d), DEP(d, l), EMP(f, t, d)"
        record = {"op": "rewrite", "id": "rw", "query": QUERY_PRIME,
                  "views": views, "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}
        with ShardedSolverPool(shard_count=1, mode="inline") as pool:
            assert pool.execute(record)["ok"]
        assert [requested for requested, _ in levels] == [3]
        levels.clear()
        with ShardedSolverPool(shard_count=1, mode="inline",
                               limits=ServiceLimits(max_level=1)) as pool:
            capped = pool.execute(dict(record, max_level=1))
        assert capped["ok"] and capped["result"]["rewritings"]
        assert levels and all(requested == 1 and built <= 1
                              for requested, built in levels)

    def test_catalog_traffic_replays_through_a_pool(self):
        traffic = TrafficGenerator(tenant_count=3, seed=11)
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            for registration in traffic.catalog_registrations():
                envelope = pool.submit(registration).result()
                assert envelope["ok"], envelope
            assert pool.counters()["catalogs"] == 3
            responses = pool.execute_all(
                traffic.catalog_requests(12, strategy="bucketed"))
            assert len(responses) == 12
            assert all(envelope["ok"] for envelope in responses)
            assert all(envelope["result"]["strategy"] == "bucketed"
                       for envelope in responses)
