"""Tests for repro.fleet: capacity, admission, routing, and failover.

Covers the PR 6 tentpole and satellites: the coordinator/node control
plane (register, heartbeat, drain, evacuate, quota, status), MAAS-style
capacity accounting with termination-aware admission, dead-node
rerouting with no acknowledged responses lost, the shared persistent
warm tier, ServiceClient reconnect-and-retry, routing
fairness of ``shard_for``, and multi-stream traffic determinism.
"""

from __future__ import annotations

import contextlib
import json
import time
from types import SimpleNamespace

import pytest

from repro.api import (
    ContainmentRequest,
    PersistentCache,
    Solver,
    SolverConfig,
    dependency_fingerprint,
    schema_fingerprint,
)
from repro.chase.termination import (
    ChaseSizeEstimate,
    dependency_position_graph,
    estimate_chase_size,
    position_ranks,
)
from repro.dependencies.dependency_set import DependencySet
from repro.fleet import (
    AdmissionPolicy,
    CapacityError,
    FleetClient,
    FleetCoordinator,
    FleetNode,
    NodeCapacity,
    TenantLedger,
    TenantQuota,
)
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceTransportError,
    ShardedSolverPool,
    SolverService,
    shard_for,
)
from repro.service.protocol import routing_fingerprints
from repro.workloads import TrafficGenerator
from repro.workloads.dependency_generator import DependencyGenerator
from repro.workloads.schema_generator import SchemaGenerator

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"
TOKEN = "secret-token"


def contain_record(**overrides):
    record = {"id": "q1", "query": QUERY, "query_prime": QUERY_PRIME,
              "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}
    record.update(overrides)
    return record


@contextlib.contextmanager
def running_fleet(node_count=2, shard_count=2, capacity_total=None,
                  policy=None, default_quota=None, heartbeat_timeout=60.0):
    """A coordinator plus ``node_count`` registered in-process nodes.

    Long heartbeat intervals/timeouts: these tests drive state changes
    explicitly (stop a node, drain, …) rather than waiting on timers.
    """
    coordinator = FleetCoordinator(
        admin_token=TOKEN,
        policy=policy or AdmissionPolicy(),
        default_quota=default_quota or TenantQuota(),
        heartbeat_timeout=heartbeat_timeout)
    coordinator_thread = coordinator.run_in_thread()
    host, port = coordinator_thread.address[1]
    nodes, threads, pools = [], [], []
    try:
        for index in range(node_count):
            pool = ShardedSolverPool(shard_count=shard_count, mode="inline")
            pools.append(pool)
            node = FleetNode(f"node-{index}", pool, host, port, TOKEN,
                             capacity_total=capacity_total,
                             heartbeat_interval=60.0)
            threads.append(node.run_in_thread())
            nodes.append(node)
        yield SimpleNamespace(coordinator=coordinator, port=port,
                              nodes=nodes, threads=threads)
    finally:
        for thread in threads:
            thread.stop()
        coordinator_thread.stop()
        for pool in pools:
            pool.close()


# ---------------------------------------------------------------------------
# Capacity accounting
# ---------------------------------------------------------------------------


class TestNodeCapacity:
    def test_admit_release_and_snapshot(self):
        capacity = NodeCapacity(total=100)
        assert capacity.admit(60)
        assert capacity.available == 40
        assert not capacity.admit(50)
        capacity.release(60)
        assert capacity.available == 100
        snapshot = capacity.snapshot()
        assert snapshot["total"] == 100
        assert snapshot["used"] == 0
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == 1

    def test_over_commit_scales_effective_total(self):
        capacity = NodeCapacity(total=100, over_commit_ratio=1.5)
        assert capacity.effective_total == 150
        assert capacity.admit(140)
        assert not capacity.admit(20)

    def test_release_never_goes_negative(self):
        capacity = NodeCapacity(total=10)
        capacity.release(99)
        assert capacity.used == 0

    def test_invalid_construction_and_cost(self):
        with pytest.raises(CapacityError):
            NodeCapacity(total=0)
        with pytest.raises(CapacityError):
            NodeCapacity(total=10, over_commit_ratio=0)
        with pytest.raises(CapacityError):
            NodeCapacity(total=10).admit(0)


class TestTenantLedger:
    TENANT = ("schema-fp", "deps-fp")

    def test_default_quota_is_unlimited(self):
        ledger = TenantLedger()
        assert ledger.deny_reason(self.TENANT, 10**9) is None

    def test_per_request_quota(self):
        ledger = TenantLedger(TenantQuota(max_request_cost=100))
        assert ledger.deny_reason(self.TENANT, 100) is None
        assert "per-request" in ledger.deny_reason(self.TENANT, 101)

    def test_in_flight_quota_charges_and_releases(self):
        ledger = TenantLedger(TenantQuota(max_in_flight_cost=100))
        ledger.charge(self.TENANT, 80)
        assert ledger.deny_reason(self.TENANT, 30) is not None
        ledger.release(self.TENANT, 80)
        assert ledger.deny_reason(self.TENANT, 30) is None

    def test_explicit_quota_overrides_and_clears(self):
        ledger = TenantLedger(TenantQuota())
        ledger.set_quota(self.TENANT, TenantQuota(max_request_cost=5))
        assert ledger.deny_reason(self.TENANT, 6) is not None
        ledger.set_quota(self.TENANT, None)
        assert ledger.deny_reason(self.TENANT, 6) is None

    def test_invalid_quota(self):
        with pytest.raises(CapacityError):
            TenantQuota(max_request_cost=0)


class TestAdmissionPolicy:
    def test_certified_charges_the_estimate(self):
        estimate = ChaseSizeEstimate(bounded=True, max_rank=1,
                                     position_count=5, copy_edge_count=1,
                                     existential_edge_count=1)
        decision = AdmissionPolicy().decide(
            certified=True, estimate=estimate, query_atoms=2,
            requested_max_conjuncts=None, requested_max_level=None)
        assert decision.certified
        assert decision.cost == estimate.nodes(2)
        assert decision.clamps == {}

    def test_certified_cost_capped_by_requested_budget(self):
        estimate = ChaseSizeEstimate(bounded=True, max_rank=3,
                                     position_count=9, copy_edge_count=4,
                                     existential_edge_count=4)
        decision = AdmissionPolicy().decide(
            certified=True, estimate=estimate, query_atoms=10,
            requested_max_conjuncts=50, requested_max_level=None)
        assert decision.cost == 50

    def test_uncertified_gets_clamped_budgets(self):
        policy = AdmissionPolicy(uncertified_max_conjuncts=500,
                                 uncertified_max_level=4)
        decision = policy.decide(certified=False, estimate=None, query_atoms=3,
                                 requested_max_conjuncts=10_000,
                                 requested_max_level=64)
        assert not decision.certified
        assert decision.cost == 500
        assert decision.clamps == {"max_conjuncts": 500, "max_level": 4}

    def test_uncertified_respects_smaller_request(self):
        decision = AdmissionPolicy(uncertified_max_conjuncts=500).decide(
            certified=False, estimate=None, query_atoms=3,
            requested_max_conjuncts=100, requested_max_level=2)
        assert decision.cost == 100
        assert decision.clamps["max_conjuncts"] == 100
        assert decision.clamps["max_level"] == 2

    def test_coordinator_memos_stay_bounded_over_many_tenants(self):
        # Clients choose tenants: every distinct (schema, Σ) priced adds a
        # memo entry, and the memos must evict rather than grow forever.
        coordinator = FleetCoordinator()
        for tenant in range(4100):
            record = {"op": "chase", "schema": f"R{tenant}(a, b)", "deps": "",
                      "query": f"Q(x) :- R{tenant}(x, y)"}
            coordinator._decide(record, routing_fingerprints(
                record, coordinator.defaults, coordinator._parser))
        assert len(coordinator._estimates) <= 4096
        assert len(coordinator._atom_counts) <= 4096


# ---------------------------------------------------------------------------
# Chase-size estimation (the termination-aware half of admission)
# ---------------------------------------------------------------------------


class TestChaseSizeEstimate:
    def test_chain_ind_ranks_are_finite_and_increase(self):
        schema = parse_schema("R(a, b)\nS(c, d)\nT(e, f)")
        sigma = parse_dependencies("R[b] <= S[c]\nS[d] <= T[e]", schema)
        graph = dependency_position_graph(sigma, schema)
        ranks = position_ranks(graph)
        assert ranks is not None
        # Each hop through an existential edge raises the rank.
        assert ranks[("S", 1)] == 1
        assert ranks[("T", 1)] == 2

    def test_cyclic_ind_has_no_finite_ranks(self):
        schema = parse_schema("R(a, b)")
        sigma = parse_dependencies("R[b] <= R[a]", schema)
        estimate = estimate_chase_size(sigma, schema)
        assert not estimate.bounded
        assert "unbounded" in estimate.describe()
        with pytest.raises(ValueError):
            estimate.nodes(1)

    def test_estimate_dominates_actual_chase_size(self):
        schema = parse_schema(SCHEMA_TEXT)
        sigma = parse_dependencies(DEPS_TEXT, schema)
        estimate = estimate_chase_size(sigma, schema)
        assert estimate.bounded
        query = parse_query(QUERY, schema)
        query_prime = parse_query(QUERY_PRIME, schema)
        result = Solver().is_contained(query, query_prime, sigma)
        assert result.holds
        assert estimate.nodes(len(query.conjuncts)) >= result.chase_size

    def test_estimate_dominates_on_generated_tenants(self):
        generator = TrafficGenerator(tenant_count=4, seed=11)
        solver = Solver()
        checked = 0
        for tenant in generator.tenants:
            schema = parse_schema(tenant.schema_text)
            sigma = parse_dependencies(tenant.deps_text, schema)
            estimate = estimate_chase_size(sigma, schema)
            if not estimate.bounded:
                continue
            query_text, query_prime_text = tenant.contain_pairs[0]
            query = parse_query(query_text, schema)
            query_prime = parse_query(query_prime_text, schema)
            result = solver.is_contained(query, query_prime, sigma)
            assert estimate.nodes(len(query.conjuncts)) >= result.chase_size
            checked += 1
        assert checked > 0

    def test_empty_sigma_estimates_query_itself(self):
        schema = parse_schema("R(a, b)")
        estimate = estimate_chase_size(DependencySet(schema=schema), schema)
        assert estimate.bounded
        assert estimate.nodes(3) == 3


# ---------------------------------------------------------------------------
# The fleet end to end
# ---------------------------------------------------------------------------


class TestFleetEndToEnd:
    def test_contain_round_trip_names_the_node(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                                          identifier="r1")
                assert envelope["ok"]
                assert envelope["result"]["holds"]
                assert envelope["node"] in {"node-0", "node-1"}

    def test_affinity_pins_a_tenant_to_one_node(self):
        generator = TrafficGenerator(tenant_count=6, seed=3)
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                served = {}
                for record in generator.requests(30, stream_seed=1):
                    envelope = client.request(record)
                    assert envelope["ok"], envelope
                    tenant = record["id"].split("/")[0]
                    served.setdefault(tenant, set()).add(envelope["node"])
                assert all(len(nodes) == 1 for nodes in served.values())

    def test_ping_identifies_the_coordinator(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                result = client.check(client.request({"op": "ping"}))
                assert result["pong"]
                assert result["role"] == "coordinator"
                assert result["fleet_size"] == 2

    def test_stats_merge_fleet_wide(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                client.contain(QUERY, QUERY_PRIME,
                               schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                stats = client.stats()
                assert stats["coordinator"]["forwarded"] == 1
                names = {node["name"] for node in stats["nodes"]}
                assert names == {"node-0", "node-1"}
                for node in stats["nodes"]:
                    assert node["status"] == "alive"
                    assert "capacity" in node

    def test_killing_a_node_loses_no_acknowledged_responses(self):
        generator = TrafficGenerator(tenant_count=6, seed=5)
        records = generator.requests(40, stream_seed=2)
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                answered = []
                for index, record in enumerate(records):
                    if index == 10:
                        fleet.threads[0].stop()  # kill node-0 mid-stream
                    envelope = client.request(record)
                    assert envelope["ok"], envelope
                    answered.append(envelope["id"])
                # Every request sent was answered, exactly once, in order.
                assert answered == [record["id"] for record in records]
                # And the survivor took over the dead node's tenants.
                post_kill = client.contain(
                    QUERY, QUERY_PRIME, schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert post_kill["ok"]
                assert post_kill["node"] == "node-1"

    def test_over_capacity_gets_structured_envelope(self):
        with running_fleet(node_count=1, capacity_total=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                                          identifier="big")
                assert not envelope["ok"]
                error = envelope["error"]
                assert error["kind"] == "capacity"
                detail = error["detail"]
                assert detail["scope"] == "node"
                capacity = detail["capacity"]
                assert capacity["available"] <= capacity["effective_total"]
                assert detail["admission"]["cost"] > 1
                assert detail["admission"]["certified"]

    def test_tenant_quota_rejection(self):
        with running_fleet(
                default_quota=TenantQuota(max_request_cost=1)) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "capacity"
                assert envelope["error"]["detail"]["scope"] == "tenant"

    def test_uncertified_sigma_is_clamped_not_rejected(self):
        # R[b] <= R[a] is the paper's canonical non-terminating Σ; the
        # fleet still serves it, under clamped budgets.
        with running_fleet(node_count=1,
                           policy=AdmissionPolicy(
                               uncertified_max_conjuncts=50,
                               uncertified_max_level=3)) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.chase("Q(a) :- R(a, b)", schema="R(a, b)",
                                        deps="R[b] <= R[a]", max_level=10)
                assert envelope["ok"], envelope
                # The clamp (level 3), not the request (level 10), bounded
                # the chase.
                assert envelope["result"]["max_level"] <= 3

    def test_admin_requires_token(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.request({"op": "fleet.status",
                                           "admin_token": "wrong"})
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "forbidden"
                envelope = client.request({"op": "fleet.status"})
                assert envelope["error"]["kind"] == "forbidden"

    def test_status_drain_and_evacuate(self):
        with running_fleet() as fleet:
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                status = admin.status()
                assert status["ring"] == ["node-0", "node-1"]
                assert all(node["status"] == "alive"
                           for node in status["nodes"])

                drained = admin.drain("node-0")
                assert drained["status"] == "draining"
                # Drained nodes keep their slot but take no new work.
                assert admin.status()["ring"] == ["node-0", "node-1"]
                with ServiceClient(port=fleet.port) as client:
                    for _ in range(5):
                        envelope = client.contain(
                            QUERY, QUERY_PRIME,
                            schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                        assert envelope["node"] == "node-1"

                evacuated = admin.evacuate("node-0")
                assert evacuated["evacuated"]
                assert admin.status()["ring"] == ["node-1"]

    def test_quota_admin_round_trip(self):
        with running_fleet() as fleet:
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                applied = admin.set_quota(schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                                          max_request_cost=1)
                assert applied["quota"]["max_request_cost"] == 1
                with ServiceClient(port=fleet.port) as client:
                    envelope = client.contain(QUERY, QUERY_PRIME,
                                              schema=SCHEMA_TEXT,
                                              deps=DEPS_TEXT)
                    assert envelope["error"]["kind"] == "capacity"
                cleared = admin.clear_quota(schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert cleared["quota"]["max_request_cost"] is None
                with ServiceClient(port=fleet.port) as client:
                    assert client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT,
                                          deps=DEPS_TEXT)["ok"]

    def test_register_rejects_wrong_protocol_version(self):
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.request({
                    "op": "fleet.register", "admin_token": TOKEN,
                    "node": {"name": "old", "host": "127.0.0.1", "port": 1,
                             "protocol_version": 1,
                             "capacity": {"total": 10}}})
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"
                assert "protocol version" in envelope["error"]["message"]

    def test_heartbeat_for_unknown_node_is_protocol_error(self):
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.request({"op": "fleet.heartbeat",
                                           "admin_token": TOKEN,
                                           "node": "ghost"})
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"
                assert "unknown node" in envelope["error"]["message"]

    def test_reregistration_reuses_the_slot(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.request({
                    "op": "fleet.register", "admin_token": TOKEN,
                    "node": {"name": "node-0", "host": "127.0.0.1",
                             "port": 59999, "protocol_version": 2,
                             "capacity": {"total": 123}}})
                assert envelope["ok"]
                assert envelope["result"]["slot"] == 0
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                status = admin.status()
                assert status["ring"] == ["node-0", "node-1"]
                node0 = next(node for node in status["nodes"]
                             if node["name"] == "node-0")
                assert node0["capacity"]["total"] == 123

    def test_empty_fleet_answers_capacity_not_hang(self):
        coordinator = FleetCoordinator(admin_token=TOKEN)
        thread = coordinator.run_in_thread()
        try:
            _, port = thread.address[1]
            with ServiceClient(port=port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "capacity"
                assert "no registered nodes" in envelope["error"]["message"]
        finally:
            thread.stop()

    def test_malformed_lines_get_envelopes(self):
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                for record, kind in [
                    ({"op": "nonsense"}, "protocol"),
                    ({"op": "contain", "query": QUERY}, "protocol"),
                    (contain_record(max_conjuncts=-1), "budget"),
                ]:
                    envelope = client.request(record)
                    assert not envelope["ok"]
                    assert envelope["error"]["kind"] == kind


def _eventually(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestHeartbeatLoop:
    def test_node_heartbeats_loses_and_rejoins_its_coordinator(self):
        coordinator = FleetCoordinator(admin_token=TOKEN)
        threads = [coordinator.run_in_thread()]
        host, port = threads[0].address[1]
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        node = FleetNode("node-0", pool, host, port, TOKEN,
                         heartbeat_interval=0.1)
        threads.insert(0, node.run_in_thread())
        try:
            assert _eventually(lambda: node.heartbeats_sent >= 1)
            threads[1].stop()
            assert _eventually(lambda: not node.registered)
            # A coordinator restarted on the same port has an empty
            # registry; the node's next heartbeat re-registers it.
            replacement = FleetCoordinator(port=port, admin_token=TOKEN)
            threads.append(replacement.run_in_thread())
            assert _eventually(lambda: node.registered
                               and [handle.name for handle in replacement.ring]
                               == ["node-0"])
        finally:
            for thread in threads:
                thread.stop()
            pool.close()


# ---------------------------------------------------------------------------
# Satellite: the shared warm tier (one PersistentCache)
# ---------------------------------------------------------------------------


class TestSharedWarmTier:
    def test_two_solvers_share_one_persistent_store(self):
        store = PersistentCache(":memory:")
        schema = parse_schema(SCHEMA_TEXT)
        sigma = parse_dependencies(DEPS_TEXT, schema)
        request = ContainmentRequest(parse_query(QUERY, schema),
                                     parse_query(QUERY_PRIME, schema), sigma)
        first = Solver(SolverConfig(), persistent_cache=store)
        assert first.solve(request).cache_hit is False
        # A second solver handed the same store starts warm.
        second = Solver(SolverConfig(), persistent_cache=store)
        assert second.solve(request).cache_hit is True
        persistent = second.cache_stats()["persistent"]
        assert persistent["hits"] == 1
        assert set(persistent) == {"path", "hits", "misses", "writes", "size",
                                   "hit_rate", "namespaces", "store"}
        # Neither solver opened the store, so neither closes it.
        first.close()
        second.close()
        assert store.sizes()["containment"] == 1
        store.close()

    def test_two_pools_share_one_persistent_file(self, tmp_path):
        config = SolverConfig(
            persistent_cache_path=str(tmp_path / "warm.sqlite"))
        first = ShardedSolverPool(shard_count=2, mode="inline", config=config)
        second = ShardedSolverPool(shard_count=2, mode="inline", config=config)
        try:
            cold = first.execute(contain_record())
            warm = second.execute(contain_record())
        finally:
            first.close()
            second.close()
        assert cold["ok"] and cold["cache_hit"] is False
        assert warm["ok"] and warm["cache_hit"] is True
        assert warm["result"]["holds"] == cold["result"]["holds"]

    @pytest.mark.parametrize("mode", ["inline", "thread"])
    def test_in_process_shards_share_the_pools_connection(self, tmp_path, mode):
        config = SolverConfig(
            persistent_cache_path=str(tmp_path / "warm.sqlite"))
        pool = ShardedSolverPool(shard_count=2, mode=mode, config=config)
        try:
            assert pool.shared_persistent is not None
            assert all(shard.solver.persistent_cache is pool.shared_persistent
                       for shard in pool.shards)
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Satellite: ServiceClient reconnect
# ---------------------------------------------------------------------------


class TestClientReconnect:
    def _serve(self, port=0):
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        thread = SolverService(pool, port=port).run_in_thread()
        return pool, thread

    def test_idempotent_request_survives_server_restart(self):
        pool, thread = self._serve()
        _, port = thread.address[1]
        client = ServiceClient(port=port)
        try:
            assert client.ping()
            thread.stop()
            pool.close()
            pool, thread = self._serve(port=port)
            # Same client object, dead socket: request() reconnects and
            # retries because ping is idempotent.
            assert client.ping()
            envelope = client.contain(QUERY, QUERY_PRIME,
                                      schema=SCHEMA_TEXT, deps=DEPS_TEXT)
            assert envelope["ok"]
        finally:
            client.close()
            thread.stop()
            pool.close()

    def test_non_idempotent_op_surfaces_transport_error_with_context(self):
        pool, thread = self._serve()
        _, port = thread.address[1]
        client = ServiceClient(port=port)
        try:
            assert client.ping()
            thread.stop()
            pool.close()
            with pytest.raises(ServiceTransportError) as excinfo:
                client.request({"op": "fleet.drain", "id": "d1",
                                "admin_token": TOKEN, "node": "node-0"})
            assert "fleet.drain" in str(excinfo.value)
            assert "d1" in str(excinfo.value)
        finally:
            client.close()

    def test_retry_gives_up_when_server_stays_down(self):
        pool, thread = self._serve()
        _, port = thread.address[1]
        client = ServiceClient(port=port)
        try:
            assert client.ping()
            thread.stop()
            pool.close()
            with pytest.raises(ServiceClientError):
                client.ping()
        finally:
            client.close()


# ---------------------------------------------------------------------------
# Satellite: routing fairness and multi-stream traffic
# ---------------------------------------------------------------------------


class TestRoutingFairness:
    @staticmethod
    def _tenant_fingerprints(count, seed=7):
        fingerprints = []
        for index in range(count):
            schema = SchemaGenerator(seed=seed * 1_000 + index).uniform(
                4, 3, prefix=f"F{index}R")
            sigma = DependencyGenerator(schema,
                                        seed=seed * 1_000 + index).key_based(2)
            fingerprints.append((schema_fingerprint(schema),
                                 dependency_fingerprint(sigma)))
        return fingerprints

    def test_shard_for_is_near_uniform(self):
        fingerprints = self._tenant_fingerprints(128)
        for shard_count in (2, 3, 4, 8, 16):
            counts = [0] * shard_count
            for schema_fp, deps_fp in fingerprints:
                counts[shard_for(schema_fp, deps_fp, shard_count)] += 1
            expected = len(fingerprints) / shard_count
            # SHA-256 routing behaves like a uniform hash: every shard is
            # populated and no shard is grossly hot (< 2.25x expected —
            # generous for n=128, but a modulo-bias or truncation bug
            # lands far outside it).
            assert min(counts) > 0
            assert max(counts) < 2.25 * expected, (shard_count, counts)

    def test_fingerprints_are_distinct(self):
        fingerprints = self._tenant_fingerprints(64)
        assert len(set(fingerprints)) == 64


class TestTrafficStreams:
    def test_streams_are_deterministic(self):
        first = TrafficGenerator(tenant_count=4, seed=9).streams(3, 20)
        second = TrafficGenerator(tenant_count=4, seed=9).streams(3, 20)
        assert first == second

    def test_streams_differ_and_ids_are_unique(self):
        streams = TrafficGenerator(tenant_count=4, seed=9).streams(3, 20)
        assert streams[0] != streams[1]
        identifiers = [record["id"] for stream in streams for record in stream]
        assert len(set(identifiers)) == len(identifiers)
        assert all(identifier.startswith(f"s{index}/")
                   for index, stream in enumerate(streams)
                   for identifier in [record["id"] for record in stream][:1])

    def test_stream_seed_offsets_compose(self):
        generator = TrafficGenerator(tenant_count=4, seed=9)
        streams = generator.streams(2, 15, stream_seed=5)
        solo = generator.requests(15, stream_seed=6)
        assert [record["id"].split("/", 1)[1] for record in streams[1]] == [
            record["id"] for record in solo]

    def test_tenant_shares_handles_stream_prefixes(self):
        generator = TrafficGenerator(tenant_count=4, seed=9)
        streams = generator.streams(2, 30)
        shares = generator.tenant_shares(
            [record for stream in streams for record in stream])
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_streams_validate_against_the_fleet(self):
        streams = TrafficGenerator(tenant_count=3, seed=2).streams(2, 5)
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                for stream in streams:
                    for record in stream:
                        assert client.request(record)["ok"]

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            TrafficGenerator(tenant_count=2).streams(0, 5)


# ---------------------------------------------------------------------------
# Observability (PR 7): tracing across tiers, capacity release, obs gating
# ---------------------------------------------------------------------------


def _tenant_for_slot(slot, slot_count):
    """Schema/deps/query texts for a tenant that routes to ``slot``.

    ``shard_for`` is content-addressed, so the test walks a family of
    schemas until one lands on the wanted ring slot.
    """
    for index in range(64):
        schema_text = f"T{index}(a, b)\nU{index}(b, c)"
        deps_text = f"T{index}[b] <= U{index}[b]"
        schema = parse_schema(schema_text)
        sigma = parse_dependencies(deps_text, schema)
        if shard_for(schema_fingerprint(schema), dependency_fingerprint(sigma),
                     slot_count) == slot:
            query = f"Q(x) :- T{index}(x, y)"
            query_prime = f"P(x) :- T{index}(x, y), U{index}(y, z)"
            return schema_text, deps_text, query, query_prime
    raise AssertionError(f"no tenant found for slot {slot}")


class TestFleetObservability:
    def test_ledger_released_when_forward_dies_with_node(self):
        # A node that dies *mid-forward* must give back both the node
        # capacity and the tenant's ledger charge — otherwise every
        # crashed forward leaks quota until the tenant is starved.
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                registered = client.request({
                    "op": "fleet.register", "admin_token": TOKEN,
                    "node": {"name": "ghost", "host": "127.0.0.1",
                             "port": 59999, "protocol_version": 2,
                             "capacity": {"total": 100000}}})
                assert registered["ok"]
                ghost_slot = registered["result"]["slot"]
                schema_text, deps_text, query, query_prime = _tenant_for_slot(
                    ghost_slot, slot_count=2)

                envelope = client.contain(query, query_prime,
                                          schema=schema_text, deps=deps_text)
                # The request still succeeds: rerouted to the live node.
                assert envelope["ok"], envelope
                assert envelope["node"] == "node-0"

            coordinator = fleet.coordinator
            assert coordinator.counters["rerouted"] == 1
            # Nothing in flight afterwards: the failed forward released
            # its ledger charge and the ghost's capacity reservation.
            assert coordinator.ledger.snapshot()["in_flight_cost"] == 0
            ghost = next(handle for handle in coordinator.ring
                         if handle.name == "ghost")
            assert ghost.status == "dead"
            assert ghost.capacity.used == 0

    def test_ledger_released_when_no_alive_node_remains(self):
        with running_fleet(node_count=1) as fleet:
            fleet.threads[0].stop()  # the only node dies
            with ServiceClient(port=fleet.port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "capacity"
                assert "no alive nodes" in envelope["error"]["message"]
            coordinator = fleet.coordinator
            assert coordinator.ledger.snapshot()["in_flight_cost"] == 0
            for handle in coordinator.ring:
                assert handle.capacity.used == 0

    def test_trace_recoverable_at_coordinator(self):
        # The acceptance-criterion path: one trace id minted by the
        # client follows the request through the coordinator to a node's
        # chase engine, and one obs.trace lookup at the coordinator
        # returns the whole tree.
        with running_fleet(node_count=2) as fleet:
            with ServiceClient(port=fleet.port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert envelope["ok"]
                trace_id = client.last_trace_id
                assert trace_id is not None
                assert envelope["trace_id"] == trace_id
                # Spans flow coordinator-ward, never back to the tenant.
                assert "spans" not in envelope

            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                fetched = admin.obs_trace(trace_id)
                assert fetched["found"], fetched
                spans = fetched["spans"]
                assert all(span["trace_id"] == trace_id for span in spans)
                names = {span["name"] for span in spans}
                # Coordinator-side spans...
                assert {"fleet.forward", "fleet.admission"} <= names
                # ...and the node's own phases, absorbed into the
                # coordinator's store.
                assert {"service.contain", "parse", "chase.run"} <= names

    def test_obs_is_admin_gated_at_the_coordinator(self):
        with running_fleet(node_count=1) as fleet:
            with ServiceClient(port=fleet.port) as client:
                for op in ("obs.metrics", "obs.trace", "obs.health",
                           "obs.profile"):
                    envelope = client.request({"op": op})
                    assert not envelope["ok"]
                    assert envelope["error"]["kind"] == "forbidden"
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                metrics = admin.obs_metrics(format="prometheus")
                text = metrics["text"]
                assert "repro_fleet_coordinator" in text
                assert "repro_fleet_nodes" in text
                health = admin.obs_health()
                assert health["pid"] > 0


# ---------------------------------------------------------------------------
# Catalog registration across the fleet (PR 10)
# ---------------------------------------------------------------------------

VIEWS_TEXT = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)"


class TestFleetCatalogs:
    def test_put_is_admin_gated_and_broadcast(self):
        with running_fleet() as fleet:
            with ServiceClient(port=fleet.port) as user:
                forbidden = user.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
                assert not forbidden["ok"]
                assert forbidden["error"]["kind"] == "forbidden"
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                put = admin.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT,
                                        name="intro")
                assert put["ok"], put
                fingerprint = put["result"]["fingerprint"]
                # Broadcast reached every alive node's own store.
                assert [n["ok"] for n in put["nodes"]] == [True, True]
                for node in fleet.nodes:
                    assert len(node.pool.catalogs) == 1
            # catalog.list is user tier — tenants can discover what is
            # registered without the admin token.
            with ServiceClient(port=fleet.port) as user:
                listed = user.catalog_list()
                assert listed["ok"]
                rows = listed["result"]["catalogs"]
                assert [row["fingerprint"] for row in rows] == [fingerprint]
                dropped = user.catalog_drop(fingerprint)
                assert not dropped["ok"]
                assert dropped["error"]["kind"] == "forbidden"

    def test_rewrite_by_fingerprint_routes_to_a_node(self):
        with running_fleet() as fleet:
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                put = admin.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
                fingerprint = put["result"]["fingerprint"]
            with ServiceClient(port=fleet.port) as user:
                envelope = user.rewrite(QUERY, catalog_fp=fingerprint,
                                        deps=DEPS_TEXT, strategy="bucketed")
                assert envelope["ok"], envelope
                assert envelope["node"] in ("node-0", "node-1")
                assert envelope["result"]["strategy"] == "bucketed"
                assert envelope["result"]["rewritings"]
                # An unregistered fingerprint fails fast at the
                # coordinator instead of bouncing off a node.
                unknown = user.rewrite(QUERY, catalog_fp="0" * 64,
                                       deps=DEPS_TEXT)
                assert not unknown["ok"]
                assert unknown["error"]["kind"] == "protocol"

    def test_drop_propagates(self):
        with running_fleet(node_count=1) as fleet:
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                put = admin.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
                fingerprint = put["result"]["fingerprint"]
                assert len(fleet.nodes[0].pool.catalogs) == 1
                dropped = admin.catalog_drop(fingerprint)
                assert dropped["ok"] and dropped["result"]["dropped"]
                assert len(fleet.nodes[0].pool.catalogs) == 0

    def test_registration_replays_the_catalog_set(self):
        with running_fleet(node_count=1) as fleet:
            with FleetClient(port=fleet.port, admin_token=TOKEN) as admin:
                admin.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
            host, port = fleet.nodes[0].address[1]
            with ServiceClient(port=fleet.port) as client:
                envelope = client.request({
                    "op": "fleet.register", "admin_token": TOKEN,
                    "node": {"name": "node-0", "host": host, "port": port,
                             "protocol_version": 2,
                             "capacity": {"total": 100}}})
                assert envelope["ok"], envelope
                assert envelope["result"]["catalogs_replayed"] == 1
            assert len(fleet.nodes[0].pool.catalogs) == 1
