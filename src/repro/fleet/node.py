"""A fleet member: a solver service that registers with a coordinator.

:class:`FleetNode` wraps one :class:`~repro.service.server.SolverService`
(and its sharded pool) with the fleet control plane:

* on start it binds its service socket, then **registers** with the
  coordinator — name, actual host/port, declared capacity, protocol
  version — over the same NDJSON wire the data plane uses;
* a background task **heartbeats** every ``heartbeat_interval`` seconds
  with the node's current pending-queue depth; a coordinator that stops
  hearing heartbeats declares the node dead and reroutes its tenants;
* a heartbeat that fails (coordinator restarted, network blip)
  degrades into a **re-registration** attempt on the next tick, so a
  bounced coordinator re-learns its fleet without operator action.

The node never *pushes* work anywhere: the coordinator connects to the
node's service port and forwards requests like any other client.  That
keeps the worker exactly as dumb as a standalone ``repro serve``
process — a fleet node answered requests identically before fleets
existed.

Duck-typed for :class:`~repro.service.server.ServiceThread` (async
``start``/``stop`` plus ``address``), so tests and examples embed a
whole node on one daemon thread the same way they embed a service.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ReproError
from repro.fleet.coordinator import NodeConnection
from repro.service.pool import ShardedSolverPool
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServiceThread, SolverService


class FleetNodeError(ReproError):
    """The node could not join or speak to its coordinator."""


class FleetNode:
    """One registered worker: a :class:`SolverService` plus fleet membership.

    ``capacity_total`` defaults to ``shard_count × limits.max_conjuncts``
    — every shard fully occupied by a worst-case request — which makes
    an unconfigured fleet admit roughly what its workers can actually
    hold.  ``over_commit_ratio`` is forwarded to the coordinator, which
    owns the accounting (the node only *declares*; see
    :class:`~repro.fleet.capacity.NodeCapacity`).
    """

    def __init__(self, name: str, pool: ShardedSolverPool,
                 coordinator_host: str, coordinator_port: int,
                 admin_token: str,
                 host: str = "127.0.0.1", port: int = 0,
                 capacity_total: Optional[int] = None,
                 over_commit_ratio: float = 1.0,
                 heartbeat_interval: float = 2.0):
        if not name:
            raise FleetNodeError("a fleet node needs a non-empty name")
        if heartbeat_interval <= 0:
            raise FleetNodeError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}")
        self.name = name
        self._service = SolverService(pool, host=host, port=port)
        self._coordinator = (coordinator_host, coordinator_port)
        self._admin_token = admin_token
        self._capacity_total = (capacity_total if capacity_total is not None
                                else pool.shard_count * pool.limits.max_conjuncts)
        self._over_commit_ratio = over_commit_ratio
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_task: Optional[asyncio.Task] = None
        self.registered = False
        self.heartbeats_sent = 0

    @property
    def service(self) -> SolverService:
        return self._service

    @property
    def pool(self) -> ShardedSolverPool:
        return self._service.pool

    @property
    def address(self) -> Tuple[str, Any]:
        return self._service.address

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the service socket, register, and start heartbeating.

        Registration failure is fatal at start (an unreachable
        coordinator at boot is a deployment error worth failing loudly
        on); heartbeat failures later are survivable and retried.
        """
        await self._service.start()
        envelope = await self._control(self._registration_record())
        if not envelope.get("ok"):
            await self._service.stop()
            error = envelope.get("error") or {}
            raise FleetNodeError(
                f"coordinator rejected registration of node {self.name!r}: "
                f"{error.get('kind', 'unknown')}: {error.get('message', envelope)}")
        self.registered = True
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def stop(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        self.registered = False
        await self._service.stop()

    def run_in_thread(self) -> ServiceThread:
        """The whole node (service + heartbeats) on one daemon thread."""
        return ServiceThread(self)

    # -- the control plane ---------------------------------------------------

    def _registration_record(self) -> Dict[str, Any]:
        kind, location = self._service.address
        if kind != "tcp":
            raise FleetNodeError(
                "fleet nodes must serve TCP (the coordinator dials them back); "
                f"this node is bound to {kind}:{location}")
        host, port = location
        return {
            "op": "fleet.register",
            "admin_token": self._admin_token,
            "node": {
                "name": self.name,
                "host": host,
                "port": port,
                "shard_count": self.pool.shard_count,
                "protocol_version": PROTOCOL_VERSION,
                "capacity": {
                    "total": self._capacity_total,
                    "over_commit_ratio": self._over_commit_ratio,
                },
            },
        }

    def _heartbeat_record(self) -> Dict[str, Any]:
        return {
            "op": "fleet.heartbeat",
            "admin_token": self._admin_token,
            "node": self.name,
            "pending": self.pool.pending(),
        }

    async def _control(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip to the coordinator.

        A fresh connection per control message: these are rare (one
        heartbeat every couple of seconds), and statelessness here is
        what lets a bounced coordinator be re-joined with zero shared
        connection state to repair.
        """
        host, port = self._coordinator
        connection = NodeConnection(host, port)
        try:
            envelope = await connection.request(record)
        except OSError as error:  # ConnectionError included
            raise FleetNodeError(
                f"cannot reach coordinator at {host}:{port}: {error}") from error
        finally:
            connection.close()
        if not isinstance(envelope, dict):
            raise FleetNodeError("coordinator sent a non-object envelope")
        return envelope

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            try:
                envelope = await self._control(self._heartbeat_record())
                if envelope.get("ok"):
                    self.heartbeats_sent += 1
                    self.registered = True
                    continue
                error = envelope.get("error") or {}
                if error.get("kind") == "protocol":
                    # "unknown node": the coordinator restarted and lost
                    # the registry — re-register rather than heartbeat
                    # into the void.
                    retry = await self._control(self._registration_record())
                    self.registered = bool(retry.get("ok"))
                else:
                    self.registered = False
            except FleetNodeError:
                # Coordinator unreachable; keep ticking — it may come
                # back, and the next successful heartbeat re-registers.
                self.registered = False
                try:
                    retry = await self._control(self._registration_record())
                    self.registered = bool(retry.get("ok"))
                except FleetNodeError:
                    pass
