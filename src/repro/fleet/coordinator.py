"""The fleet coordinator: affinity routing, admission, and failover.

One asyncio front end speaking the same NDJSON protocol as every
worker, so a :class:`~repro.service.client.ServiceClient` pointed at a
coordinator cannot tell it from a single node — except that the fleet
behind it scales and survives node deaths.

**Routing** reuses the service's shard affinity verbatim: a tenant is
``(schema_fingerprint, Σ_fingerprint)``, and
:func:`~repro.service.protocol.shard_for` picks a *slot* in the ring of
registered nodes.  Slots are registration-ordered and are kept (not
compacted) when a node dies, so a death moves only the dead node's
tenants: they probe linearly to the next alive slot, and every other
tenant keeps its warm node.  Explicit ``fleet.evacuate`` removes the
slot (a deliberate, rare rebalance); drain keeps the slot but stops
admitting to it.

**Admission** is termination-aware (see :mod:`repro.fleet.capacity`):
each tenant's Σ is analysed once — weakly acyclic Σ gets a finite
chase-size estimate charged against the target node's MAAS-style
chase-node budget; uncertified Σ is forwarded with clamped
``max_conjuncts``/``max_level`` and charged the clamp.  A request the
target node cannot hold is answered immediately with a structured
``capacity`` envelope (never a hang, and never silently spilled to a
cold node — affinity is the point of the fleet).

**Failover**: the coordinator keeps one pipelined connection per node
(the node's server answers a connection strictly in order, so responses
match requests FIFO).  A connection failure fails the in-flight
requests on it; each such request marks the node dead and retries on
the tenant's rerouted node.  Workers are pure (every data-plane op is
idempotent), so the retry is safe, and a response acknowledged to a
client was by construction computed exactly somewhere.

**Tiers**: each op's tier is declared once, in
:data:`~repro.service.protocol.OPS` (the kuberdock-style
``available_for`` split).  The coordinator's port is the tenant-facing
one, so every ``ADMIN`` op — ``fleet.*``, ``obs.*``, ``catalog.put`` and
``catalog.drop`` — needs its admin token, checked in one place before
the record is validated.
"""

from __future__ import annotations

import asyncio
import hmac
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.api.cache import LRUCache
from repro.chase.termination import estimate_chase_size
from repro.exceptions import ReproError
from repro.fleet.capacity import (
    AdmissionDecision,
    AdmissionPolicy,
    NodeCapacity,
    TenantKey,
    TenantLedger,
    TenantQuota,
)
from repro.obs.metrics import get_registry
from repro.obs.tracing import Span, get_tracer, maybe_span, new_trace_id
from repro.parser.query_parser import parse_query
from repro.service.protocol import (
    ADMIN,
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    CatalogStore,
    ProtocolError,
    ServiceDefaults,
    TenantParser,
    decode_line,
    error_envelope,
    exception_envelope,
    handle_catalog_record,
    handle_obs_record,
    op_of,
    resolve_catalog_record,
    routing_fingerprints,
    shard_for,
    validate_record,
)
from repro.service.server import LineServer


class NodeConnection:
    """One pipelined NDJSON connection from the coordinator to a node.

    The node's server answers a connection strictly in order, so the
    connection keeps a FIFO of response futures: request *k* resolves
    from response line *k*.  Any transport failure fails every pending
    future with :class:`ConnectionError` — the forwarding loop above
    turns that into mark-dead-and-reroute.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Deque["asyncio.Future[Dict[str, Any]]"] = deque()
        self._send_lock = asyncio.Lock()
        self._closed = False

    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._closed:
            return
        self._closed = False
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=STREAM_LIMIT)
        self._reader_task = asyncio.create_task(self._read_loop())

    async def request(self, record: Dict[str, Any]) -> Dict[str, Any]:
        await self._ensure_connected()
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future())
        # Lock so the write order matches the future-queue order even
        # when many forwards target this node concurrently.
        async with self._send_lock:
            if self._closed or self._writer is None:
                raise ConnectionError(
                    f"connection to {self._host}:{self._port} is closed")
            self._pending.append(future)
            try:
                self._writer.write(json.dumps(record).encode("utf-8") + b"\n")
                await self._writer.drain()
            except OSError as error:
                self._fail_pending(error)
                raise ConnectionError(str(error)) from error
        return await future

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._fail_pending(ConnectionError(
                        f"node {self._host}:{self._port} closed the connection"))
                    return
                try:
                    envelope = json.loads(line)
                except json.JSONDecodeError as error:
                    self._fail_pending(ConnectionError(
                        f"node {self._host}:{self._port} broke the protocol: "
                        f"{error}"))
                    return
                if self._pending:
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(envelope)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionError("coordinator shutting down"))
        except Exception as error:
            # OSError, an over-limit line, anything: a reader that dies
            # silently would leave every pending forward hanging forever.
            self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        self._closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(
                    error if isinstance(error, ConnectionError)
                    else ConnectionError(str(error)))

    def close(self) -> None:
        self._fail_pending(ConnectionError("connection closed"))
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class NodeHandle:
    """The coordinator's view of one registered node."""

    def __init__(self, name: str, host: str, port: int,
                 capacity: NodeCapacity, shard_count: int,
                 protocol_version: int, now: float):
        self.name = name
        self.host = host
        self.port = port
        self.capacity = capacity
        self.shard_count = shard_count
        self.protocol_version = protocol_version
        self.status = "alive"  # alive | draining | dead
        self.last_heartbeat = now
        self.pending = 0
        self.connection: Optional[NodeConnection] = None

    @property
    def alive(self) -> bool:
        return self.status == "alive"

    def drop_connection(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "status": self.status,
            "shard_count": self.shard_count,
            "protocol_version": self.protocol_version,
            "heartbeat_age_s": round(now - self.last_heartbeat, 3),
            "pending": self.pending,
            "capacity": self.capacity.snapshot(),
        }


class FleetCoordinator(LineServer):
    """The NDJSON front end over a ring of registered solver nodes.

    ``heartbeat_timeout`` is how long a silent node stays routable; the
    sweeper marks it dead after that, and its tenants probe onward.
    ``defaults`` plays the same role as on a single service: schema and
    Σ texts requests may omit.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 admin_token: str = "", *,
                 policy: AdmissionPolicy = AdmissionPolicy(),
                 default_quota: TenantQuota = TenantQuota(),
                 defaults: ServiceDefaults = ServiceDefaults(),
                 heartbeat_timeout: float = 6.0,
                 slow_op_threshold: Optional[float] = None):
        if heartbeat_timeout <= 0:
            raise ReproError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}")
        super().__init__(host, port, slow_op_threshold=slow_op_threshold)
        self._admin_token = admin_token
        self.policy = policy
        self.defaults = defaults
        self._heartbeat_timeout = heartbeat_timeout
        self._parser = TenantParser()
        self.ledger = TenantLedger(default_quota)
        self.ring: List[NodeHandle] = []
        self._by_name: Dict[str, NodeHandle] = {}
        # Per-tenant certification is priced once and reused: the memo
        # key is the routing identity, which already pins Σ exactly.
        # Clients choose tenants and queries, so both memos are bounded.
        self._estimates = LRUCache(4096)
        self._atom_counts = LRUCache(4096)
        # The fleet's registered catalogs.  The coordinator is the
        # source of truth: catalog.put/drop are admin-gated here, applied
        # locally, then broadcast to every alive node (and replayed to
        # late registrants), so any node can resolve a tenant's
        # rewrite-by-fingerprint without the coordinator resending the
        # views text per request.
        self.catalogs = CatalogStore()
        self.counters = {
            "forwarded": 0,
            "rerouted": 0,
            "capacity_rejections": 0,
            "quota_rejections": 0,
            "forbidden": 0,
            "admitted_certified": 0,
            "admitted_clamped": 0,
            "catalog_broadcasts": 0,
        }
        self._sweeper_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._sweeper_task = asyncio.create_task(self._sweep_heartbeats())

    async def stop(self) -> None:
        if self._sweeper_task is not None:
            self._sweeper_task.cancel()
            try:
                await self._sweeper_task
            except asyncio.CancelledError:
                pass
            self._sweeper_task = None
        for handle in self.ring:
            handle.drop_connection()
        await super().stop()

    async def _sweep_heartbeats(self) -> None:
        interval = max(0.25, self._heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for handle in self.ring:
                if (handle.alive
                        and now - handle.last_heartbeat > self._heartbeat_timeout):
                    self._mark_dead(handle)

    def _mark_dead(self, handle: NodeHandle) -> None:
        """Stop routing to a node; its in-flight forwards fail and reroute.

        The slot stays in the ring so every *other* tenant keeps its
        node; only the dead node's tenants probe onward.
        """
        handle.status = "dead"
        handle.drop_connection()

    # -- the request front end -----------------------------------------------

    async def _answer(self, line: str) -> Dict[str, Any]:
        try:
            record = decode_line(line)
        except ProtocolError as error:
            return exception_envelope(error, None)
        op = op_of(record)
        try:
            # The one admin gate, ahead of validation, so a caller
            # without the token learns nothing about the record's fields.
            if op is not None and op.available_for == ADMIN:
                token = record.get("admin_token")
                if not (isinstance(token, str)
                        and hmac.compare_digest(token, self._admin_token)):
                    self.counters["forbidden"] += 1
                    return error_envelope(
                        record.get("id"), "forbidden",
                        f"op {op.name!r} is admin-tier at a coordinator and "
                        "requires the admin token")
            if op is not None and op.family == "fleet":
                return await self._admin(record)
            record = validate_record(record)
            if op.family == "obs":
                if op.name == "obs.metrics":
                    self._sync_fleet_gauges()
                return handle_obs_record(record)
            if op.family == "catalog":
                return await self._catalog(record)
            if op.name == "ping":
                return self._pong(record)
            if op.name == "stats":
                return await self._fleet_stats(record)
            return await self._forward(record)
        except Exception as error:
            return exception_envelope(error, record.get("id"))

    def _sync_fleet_gauges(self) -> None:
        """Mirror the routing counters and ring health into the registry.

        The counters dict stays the source of truth (``stats`` and
        ``fleet.status`` read it directly); gauges are refreshed lazily,
        only when a scrape actually happens.
        """
        registry = get_registry()
        counters = registry.gauge(
            "repro_fleet_coordinator", "Coordinator routing counters.",
            labels=("counter",))
        for name, value in self.counters.items():
            counters.set(float(value), counter=name)
        nodes = registry.gauge(
            "repro_fleet_nodes", "Registered nodes by status.",
            labels=("status",))
        by_status = {"alive": 0, "draining": 0, "dead": 0}
        for handle in self.ring:
            by_status[handle.status] = by_status.get(handle.status, 0) + 1
        for status, count in by_status.items():
            nodes.set(float(count), status=status)

    # -- catalog tier --------------------------------------------------------

    async def _catalog(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Catalog registration at the fleet tier.

        The mutations (``catalog.put``/``catalog.drop``) are admin-gated
        like ``fleet.*`` — a tenant-facing port must not let one tenant
        evict another's registered catalog — applied to the
        coordinator's own store, then broadcast to every alive node so
        each can resolve rewrite-by-fingerprint locally.
        ``catalog.list`` is user-tier (tenants discover what they may
        reference) and answered straight from the coordinator's store.
        """
        envelope = handle_catalog_record(record, self.catalogs,
                                         self.defaults, self._parser)
        if record["op"] == "catalog.list" or not envelope.get("ok"):
            return envelope
        # Nodes never see the admin token; their catalog tier is inside
        # the trust boundary, like their obs tier.
        outgoing = {key: value for key, value in record.items()
                    if key != "admin_token"}
        envelope["nodes"] = await self._broadcast_catalog(outgoing)
        return envelope

    async def _broadcast_catalog(self,
                                 record: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Apply one catalog mutation on every alive node (best-effort).

        A node that fails mid-broadcast is marked dead exactly as a
        failed forward would; it re-learns the full catalog set when it
        re-registers (see :meth:`_replay_catalogs`).
        """
        results: List[Dict[str, Any]] = []
        for handle in list(self.ring):
            if not handle.alive:
                continue
            try:
                node_envelope = await self._request_on(handle, record)
            except ConnectionError as error:
                self._mark_dead(handle)
                results.append({"node": handle.name, "ok": False,
                                "error": str(error)})
                continue
            self.counters["catalog_broadcasts"] += 1
            results.append({"node": handle.name,
                            "ok": bool(node_envelope.get("ok"))})
        return results

    async def _replay_catalogs(self, handle: NodeHandle) -> int:
        """Push every registered catalog to one (re-)registered node."""
        replayed = 0
        for entry in self.catalogs.entries():
            record = {"op": "catalog.put", "views": entry["views_text"],
                      "schema": entry["schema_text"], "name": entry["name"]}
            try:
                envelope = await self._request_on(handle, record)
            except ConnectionError:
                self._mark_dead(handle)
                break
            if envelope.get("ok"):
                replayed += 1
        return replayed

    # -- user tier -----------------------------------------------------------

    def _pong(self, record: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "id": record.get("id"), "ok": True, "op": "ping",
            "result": {"pong": True, "protocol_version": PROTOCOL_VERSION,
                       "role": "coordinator",
                       "fleet_size": sum(1 for h in self.ring if h.alive)},
        }

    async def _fleet_stats(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Fleet-wide stats: the coordinator's counters plus every node's own."""
        nodes = []
        for handle in list(self.ring):
            if not handle.alive:
                nodes.append({"name": handle.name, "status": handle.status})
                continue
            try:
                envelope = await self._request_on(handle, {"op": "stats"})
                nodes.append({"name": handle.name, "status": handle.status,
                              "capacity": handle.capacity.snapshot(),
                              "stats": envelope.get("result")})
            except ConnectionError as error:
                self._mark_dead(handle)
                nodes.append({"name": handle.name, "status": "dead",
                              "error": str(error)})
        return {
            "id": record.get("id"), "ok": True, "op": "stats",
            "result": {"coordinator": dict(self.counters),
                       "ledger": self.ledger.snapshot(),
                       "nodes": nodes},
        }

    def _decide(self, record: Dict[str, Any],
                tenant: TenantKey) -> AdmissionDecision:
        """Price one data-plane record (certification memoised per tenant)."""
        schema_text = record.get("schema") or self.defaults.schema_text
        estimate = self._estimates.get(tenant)
        if estimate is None:
            schema = self._parser.schema(schema_text)
            sigma = self._parser.dependencies(
                record.get("deps", self.defaults.deps_text), schema_text)
            estimate = estimate_chase_size(sigma, schema)
            self._estimates.put(tenant, estimate)
        atoms = self._count_atoms(record.get("query", ""), schema_text)
        if record["op"] == "contain":
            atoms += self._count_atoms(record.get("query_prime", ""), schema_text)
        return self.policy.decide(
            certified=estimate.bounded, estimate=estimate,
            query_atoms=max(1, atoms),
            requested_max_conjuncts=record.get("max_conjuncts"),
            requested_max_level=record.get("max_level"))

    def _count_atoms(self, query_text: str, schema_text: str) -> int:
        key = (query_text, schema_text)
        atoms = self._atom_counts.get(key)
        if atoms is None:
            schema = self._parser.schema(schema_text)
            atoms = len(parse_query(query_text, schema).conjuncts)
            self._atom_counts.put(key, atoms)
        return atoms

    async def _forward(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Route one data-plane record, under a root span.

        The span adopts the client's ``trace_context`` when one arrived
        (so the client's trace id is the one the whole fleet shares) and
        mints a fresh id otherwise; either way the chosen node is told
        to ``collect``, its returned spans are absorbed into this
        process's trace store, and the client's envelope carries the
        ``trace_id`` — one ``obs.trace`` lookup here then shows the
        coordinator's routing phases *and* the node's engine phases.
        """
        tracer = get_tracer()
        context = record.get("trace_context")
        adopted = (isinstance(context, dict)
                   and isinstance(context.get("id"), str))
        parent = context.get("parent") if adopted else None
        with tracer.start_trace(
                "fleet.forward",
                trace_id=context["id"] if adopted else new_trace_id(),
                parent_id=parent if isinstance(parent, str) else None,
                op=record.get("op", "contain")) as root:
            envelope = await self._forward_inner(record, root)
            root.tags["ok"] = bool(envelope.get("ok"))
        envelope.setdefault("trace_id", root.trace_id)
        if adopted and context.get("collect"):
            spans = tracer.store.get(root.trace_id)
            if spans:
                envelope["spans"] = spans
        return envelope

    async def _forward_inner(self, record: Dict[str, Any],
                             root: Span) -> Dict[str, Any]:
        # Route and price a rewrite-by-fingerprint as the registered
        # catalog's tenant, but forward the slim record: the node
        # resolves the fingerprint from its own (broadcast) store, so the
        # views text is not resent per request.  An unknown fingerprint
        # fails here, fast, instead of on some node.
        tenant_record = resolve_catalog_record(record, self.catalogs)
        identifier = record.get("id")
        with maybe_span("fleet.admission") as span:
            schema_fp, deps_fp = routing_fingerprints(
                tenant_record, self.defaults, self._parser)
            tenant = (schema_fp, deps_fp)
            decision = self._decide(tenant_record, tenant)
            if span is not None:
                span.tags.update(certified=decision.certified,
                                 cost=decision.cost)

        reason = self.ledger.deny_reason(tenant, decision.cost)
        if reason is not None:
            self.counters["quota_rejections"] += 1
            self.ledger.quota_rejections += 1
            envelope = error_envelope(identifier, "capacity", reason)
            envelope["error"]["detail"] = {
                "scope": "tenant",
                "quota": self.ledger.quota_for(tenant).as_dict(),
                "admission": decision.describe(),
            }
            return envelope

        slot_count = len(self.ring)
        if slot_count == 0:
            return error_envelope(identifier, "capacity",
                                  "the fleet has no registered nodes")
        start = shard_for(schema_fp, deps_fp, slot_count)
        outgoing = dict(record, **decision.clamps)
        # The node adopts the same trace id, parents its root span under
        # this forward, and returns its spans for absorption.
        outgoing["trace_context"] = {"id": root.trace_id,
                                     "parent": root.span_id,
                                     "collect": True}
        for probe in range(slot_count):
            handle = self.ring[(start + probe) % slot_count]
            if not handle.alive:
                continue
            if not handle.capacity.admit(decision.cost):
                # At capacity is a *final* answer, not a probe-onward:
                # spilling a too-big request to the next node would turn
                # one hot node into a fleet-wide cascade.
                self.counters["capacity_rejections"] += 1
                capacity = handle.capacity.snapshot()
                envelope = error_envelope(
                    identifier, "capacity",
                    f"node {handle.name!r} has {capacity['available']} of "
                    f"{capacity['effective_total']} chase nodes available; "
                    f"this request needs {decision.cost}")
                envelope["error"]["detail"] = {
                    "scope": "node", "node": handle.name,
                    "capacity": capacity, "admission": decision.describe(),
                }
                return envelope
            self.ledger.charge(tenant, decision.cost)
            envelope: Optional[Dict[str, Any]] = None
            try:
                envelope = await self._request_on(handle, outgoing)
            except ConnectionError:
                self._mark_dead(handle)
                self.counters["rerouted"] += 1
            finally:
                handle.capacity.release(decision.cost)
                self.ledger.release(tenant, decision.cost)
            if envelope is None:
                continue  # probe the rerouted node; the op is idempotent
            self.counters["forwarded"] += 1
            self.counters["admitted_certified" if decision.certified
                          else "admitted_clamped"] += 1
            envelope["node"] = handle.name
            root.tags["node"] = handle.name
            spans = envelope.pop("spans", None)
            if spans:
                get_tracer().absorb(root.trace_id, spans)
            return envelope
        return error_envelope(identifier, "capacity",
                              "the fleet has no alive nodes to serve this tenant")

    async def _request_on(self, handle: NodeHandle,
                          record: Dict[str, Any]) -> Dict[str, Any]:
        if handle.connection is None:
            handle.connection = NodeConnection(handle.host, handle.port)
        try:
            return await handle.connection.request(record)
        except OSError as error:
            raise ConnectionError(str(error)) from error

    # -- admin tier ----------------------------------------------------------

    async def _admin(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handler = {
            "fleet.register": self._admin_register,
            "fleet.heartbeat": self._admin_heartbeat,
            "fleet.drain": self._admin_drain,
            "fleet.evacuate": self._admin_evacuate,
            "fleet.quota": self._admin_quota,
            "fleet.status": self._admin_status,
        }[record["op"]]
        result = handler(record)
        if record["op"] == "fleet.register" and len(self.catalogs):
            # A (re-)registered node starts with an empty catalog store;
            # replay the fleet's registrations before it can be handed
            # rewrite-by-fingerprint traffic.
            result["catalogs_replayed"] = await self._replay_catalogs(
                self._by_name[result["registered"]])
        return {"id": record.get("id"), "ok": True, "op": record["op"],
                "result": result}

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _named_handle(self, record: Dict[str, Any]) -> NodeHandle:
        name = record.get("node")
        if not isinstance(name, str) or name not in self._by_name:
            raise ProtocolError("protocol", f"unknown node {name!r}")
        return self._by_name[name]

    def _admin_register(self, record: Dict[str, Any]) -> Dict[str, Any]:
        info = record.get("node")
        if not isinstance(info, dict):
            raise ProtocolError("protocol",
                                "fleet.register requires a 'node' object")
        name = info.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("protocol", "a node needs a non-empty name")
        version = info.get("protocol_version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "protocol",
                f"node {name!r} speaks protocol version {version!r}; this "
                f"coordinator requires {PROTOCOL_VERSION}")
        host, port = info.get("host"), info.get("port")
        if not isinstance(host, str) or not isinstance(port, int):
            raise ProtocolError("protocol",
                                f"node {name!r} needs string host and int port")
        declared = info.get("capacity") or {}
        capacity = NodeCapacity(
            total=declared.get("total", 1),
            over_commit_ratio=declared.get("over_commit_ratio", 1.0))
        now = self._now()
        existing = self._by_name.get(name)
        if existing is not None:
            # A re-registration is a restarted (or resurrected) node:
            # refresh its address and start its accounting from zero —
            # whatever was in flight on the old incarnation is gone.
            existing.drop_connection()
            existing.host, existing.port = host, port
            existing.capacity = capacity
            existing.shard_count = int(info.get("shard_count", 1))
            existing.status = "alive"
            existing.last_heartbeat = now
            slot = self.ring.index(existing)
        else:
            handle = NodeHandle(name, host, port, capacity,
                                int(info.get("shard_count", 1)),
                                version, now)
            self.ring.append(handle)
            self._by_name[name] = handle
            slot = len(self.ring) - 1
        return {"registered": name, "slot": slot,
                "fleet_size": sum(1 for h in self.ring if h.alive)}

    def _admin_heartbeat(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.last_heartbeat = self._now()
        pending = record.get("pending")
        if isinstance(pending, int):
            handle.pending = pending
        if handle.status == "dead":
            # The heartbeat proves it is back; dead was the sweeper's
            # inference, not an operator decision (draining sticks).
            handle.status = "alive"
        return {"acknowledged": True, "status": handle.status}

    def _admin_drain(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.status = "draining"
        return {"node": handle.name, "status": handle.status,
                "slot_kept": True}

    def _admin_evacuate(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.drop_connection()
        self.ring.remove(handle)
        del self._by_name[handle.name]
        return {"node": handle.name, "evacuated": True,
                "fleet_size": sum(1 for h in self.ring if h.alive)}

    def _admin_quota(self, record: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._quota_tenant(record)
        raw = record.get("quota")
        if raw is None:
            self.ledger.set_quota(tenant, None)
            applied = self.ledger.default_quota
        elif isinstance(raw, dict):
            quota = TenantQuota(
                max_request_cost=raw.get("max_request_cost"),
                max_in_flight_cost=raw.get("max_in_flight_cost"))
            self.ledger.set_quota(tenant, quota)
            applied = quota
        else:
            raise ProtocolError(
                "protocol", "'quota' must be an object or null (null clears)")
        return {"tenant": list(tenant), "quota": applied.as_dict()}

    def _quota_tenant(self, record: Dict[str, Any]) -> TenantKey:
        explicit = record.get("schema_fp"), record.get("deps_fp")
        if all(isinstance(part, str) for part in explicit):
            return explicit  # type: ignore[return-value]
        if record.get("schema") or self.defaults.schema_text:
            return routing_fingerprints(record, self.defaults, self._parser)
        raise ProtocolError(
            "protocol",
            "fleet.quota needs either schema_fp/deps_fp or schema/deps texts")

    def _admin_status(self, record: Dict[str, Any]) -> Dict[str, Any]:
        now = self._now()
        return {
            "role": "coordinator",
            "protocol_version": PROTOCOL_VERSION,
            "heartbeat_timeout_s": self._heartbeat_timeout,
            "policy": {
                "uncertified_max_conjuncts": self.policy.uncertified_max_conjuncts,
                "uncertified_max_level": self.policy.uncertified_max_level,
            },
            "counters": dict(self.counters),
            "ledger": self.ledger.snapshot(),
            "ring": [handle.name for handle in self.ring],
            "nodes": [handle.snapshot(now) for handle in self.ring],
        }
