"""A :class:`~repro.service.client.ServiceClient` that speaks the admin tier.

Data-plane calls (:meth:`contain`, :meth:`chase`, …) are inherited
unchanged — a coordinator answers them like any node.  Every record
whose op is ``ADMIN``-tier in :data:`~repro.service.protocol.OPS`
(``fleet.*``, ``obs.*``, ``catalog.put``/``catalog.drop``) carries the
admin token.  Of the ``fleet.*`` ops only ``fleet.status`` is retried on
a dropped connection; the mutations surface transport errors to the
caller, naming the op, because "was my drain applied?" is a question
only the operator can settle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.service.client import ServiceClient
from repro.service.protocol import ADMIN, op_of


class FleetClient(ServiceClient):
    """A blocking client for a fleet coordinator (user + admin tiers)."""

    def __init__(self, host: str = "127.0.0.1", port: Optional[int] = None,
                 unix_path: Optional[str] = None, timeout: float = 60.0,
                 admin_token: Optional[str] = None):
        super().__init__(host=host, port=port, unix_path=unix_path,
                         timeout=timeout)
        self._admin_token = admin_token

    def request(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Send one record, adding the admin token to ``ADMIN``-tier ops."""
        op = op_of(record)
        if (op is not None and op.available_for == ADMIN
                and self._admin_token is not None
                and "admin_token" not in record):
            record = dict(record, admin_token=self._admin_token)
        return super().request(record)

    def _admin(self, op: str, **fields: Any) -> Dict[str, Any]:
        record = {"op": op, **{key: value for key, value in fields.items()
                               if value is not None}}
        return self.check(self.request(record))

    def status(self) -> Dict[str, Any]:
        """The coordinator's full fleet snapshot (``fleet.status``)."""
        return self._admin("fleet.status")

    def drain(self, node: str) -> Dict[str, Any]:
        """Stop admitting new work to ``node``; its ring slot is kept."""
        return self._admin("fleet.drain", node=node)

    def evacuate(self, node: str) -> Dict[str, Any]:
        """Remove ``node`` from the ring entirely (a deliberate rebalance)."""
        return self._admin("fleet.evacuate", node=node)

    def set_quota(self, *, schema: Optional[str] = None,
                  deps: Optional[str] = None,
                  schema_fp: Optional[str] = None,
                  deps_fp: Optional[str] = None,
                  max_request_cost: Optional[int] = None,
                  max_in_flight_cost: Optional[int] = None) -> Dict[str, Any]:
        """Install a tenant quota (identify the tenant by texts or fingerprints)."""
        quota = {"max_request_cost": max_request_cost,
                 "max_in_flight_cost": max_in_flight_cost}
        return self._admin("fleet.quota", schema=schema, deps=deps,
                           schema_fp=schema_fp, deps_fp=deps_fp, quota=quota)

    def clear_quota(self, *, schema: Optional[str] = None,
                    deps: Optional[str] = None,
                    schema_fp: Optional[str] = None,
                    deps_fp: Optional[str] = None) -> Dict[str, Any]:
        """Drop a tenant's explicit quota, reverting it to the default."""
        record = {"op": "fleet.quota", "quota": None,
                  **{key: value for key, value in
                     {"schema": schema, "deps": deps, "schema_fp": schema_fp,
                      "deps_fp": deps_fp}.items() if value is not None}}
        return self.check(self.request(record))
