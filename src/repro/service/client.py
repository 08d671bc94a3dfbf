"""A small synchronous client for the solver service.

Speaks the NDJSON protocol over TCP or a Unix socket; one request per
call, answered in order (the server processes a connection
sequentially).  The convenience methods mirror the protocol ops::

    with ServiceClient(port=7464) as client:
        client.ping()
        envelope = client.contain("Q2(e) :- EMP(e, s, d)",
                                  "Q1(e) :- EMP(e, s, d), DEP(d, l)",
                                  schema=schema_text, deps=deps_text)
        envelope["ok"] and envelope["result"]["holds"]

Raises :class:`ServiceClientError` on transport failures; protocol-level
failures come back as ordinary ``ok: false`` envelopes, which
:meth:`ServiceClient.check` converts to exceptions for callers that
prefer raising.

A dropped connection (server restart, idle timeout, a fleet node dying)
does not kill the client: for **idempotent** operations — every solver
op answers a pure question, so all of :data:`IDEMPOTENT_OPS` qualify —
:meth:`ServiceClient.request` reconnects and retries exactly once.
Non-idempotent records (fleet admin mutations) surface the transport
error instead, with the failing record's ``op`` and ``id`` named so the
caller knows precisely what may or may not have been applied.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from repro.exceptions import ReproError
from repro.obs.tracing import new_trace_id
from repro.service.protocol import OPS, op_of

#: Operations safe to retry on a fresh connection after a transport
#: failure (the ``retry`` ops of :data:`~repro.service.protocol.OPS`):
#: each answers a pure question.  Mutations such as ``fleet.drain`` or
#: ``obs.profile`` are absent — the caller must decide whether they
#: were applied.
IDEMPOTENT_OPS = frozenset(name for name, op in OPS.items() if op.retry)


class ServiceClientError(ReproError):
    """The connection failed or the server broke the line protocol."""


class ServiceTransportError(ServiceClientError):
    """The transport failed mid-request (socket error or truncated stream).

    Distinguished from :class:`ServiceClientError` because only
    transport failures are safely retriable: a malformed *response* on a
    live connection means the answer's fate is unknown.
    """


class ServiceClient:
    """A blocking NDJSON connection to a running solver service."""

    def __init__(self, host: str = "127.0.0.1", port: Optional[int] = None,
                 unix_path: Optional[str] = None, timeout: float = 60.0,
                 trace: bool = True):
        if (port is None) == (unix_path is None):
            raise ServiceClientError(
                "specify exactly one of port= (TCP) or unix_path=")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._timeout = timeout
        self._trace = trace
        #: Trace id of the most recent data-plane request this client
        #: stamped (or adopted from a caller-supplied ``trace_context``)
        #: — the handle to pass to :meth:`obs_trace`.
        self.last_trace_id: Optional[str] = None
        self._socket: Optional[socket.socket] = None
        self._file = None

    # -- connection ----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._socket is not None:
            return self
        try:
            if self._unix_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._timeout)
                sock.connect(self._unix_path)
            else:
                sock = socket.create_connection((self._host, self._port),
                                                timeout=self._timeout)
        except OSError as error:
            raise ServiceClientError(f"cannot connect: {error}") from error
        self._socket = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover
                pass
            self._file = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover
                pass
            self._socket = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the wire ------------------------------------------------------------

    def request(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Send one record, wait for its envelope.

        A transport failure on an idempotent op (see
        :data:`IDEMPOTENT_OPS`) reconnects and retries once — the common
        case being a server restart between requests on a long-lived
        client.  A second failure, or a failure on a non-idempotent op,
        raises :class:`ServiceTransportError` naming the record.

        Tracing clients (``trace=True``, the default) stamp data-plane
        records with a fresh ``trace_context`` — the minted id lands in
        :attr:`last_trace_id` so the caller can fetch the request's span
        tree back via :meth:`obs_trace`.  A caller-supplied context is
        respected (and its id adopted).
        """
        op = op_of(record)
        if op is not None and op.family == "data":
            context = record.get("trace_context")
            if isinstance(context, dict) and isinstance(context.get("id"), str):
                self.last_trace_id = context["id"]
            elif self._trace and context is None:
                self.last_trace_id = new_trace_id()
                record = dict(record,
                              trace_context={"id": self.last_trace_id})
        self.connect()
        try:
            return self._exchange(record)
        except ServiceTransportError:
            self.close()
            if op is None or not op.retry:
                raise
            self.connect()
            return self._exchange(record)

    def _exchange(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """One write/read round-trip on the current connection."""
        context = (f"op={record.get('op', 'contain')!r} "
                   f"request (id={record.get('id')!r})")
        try:
            self._file.write(json.dumps(record).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as error:
            raise ServiceTransportError(
                f"transport error during {context}: {error}") from error
        if not line:
            raise ServiceTransportError(
                f"server closed the connection during {context}")
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError as error:
            raise ServiceClientError(
                f"server sent a non-JSON line answering {context}: "
                f"{error}") from error
        if not isinstance(envelope, dict):
            raise ServiceClientError(
                f"server sent a non-object envelope answering {context}")
        return envelope

    @staticmethod
    def check(envelope: Dict[str, Any]) -> Dict[str, Any]:
        """The envelope's result, raising on ``ok: false``."""
        if not envelope.get("ok"):
            error = envelope.get("error") or {}
            raise ServiceClientError(
                f"{error.get('kind', 'unknown')}: {error.get('message', envelope)}")
        return envelope["result"]

    # -- convenience ops -----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.check(self.request({"op": "ping"})).get("pong"))

    def stats(self) -> Dict[str, Any]:
        return self.check(self.request({"op": "stats"}))

    def contain(self, query: str, query_prime: str, *,
                schema: Optional[str] = None, deps: Optional[str] = None,
                identifier: Optional[str] = None,
                **budgets: Any) -> Dict[str, Any]:
        record = {"op": "contain", "query": query, "query_prime": query_prime,
                  "schema": schema, "deps": deps, "id": identifier, **budgets}
        return self.request(_drop_none(record))

    def chase(self, query: str, *, schema: Optional[str] = None,
              deps: Optional[str] = None, identifier: Optional[str] = None,
              **budgets: Any) -> Dict[str, Any]:
        record = {"op": "chase", "query": query, "schema": schema,
                  "deps": deps, "id": identifier, **budgets}
        return self.request(_drop_none(record))

    def rewrite(self, query: str, views: Optional[str] = None, *,
                catalog_fp: Optional[str] = None,
                strategy: Optional[str] = None,
                schema: Optional[str] = None,
                deps: Optional[str] = None, identifier: Optional[str] = None,
                **budgets: Any) -> Dict[str, Any]:
        """Rewrite against an inline views text or a registered catalog.

        Exactly one of ``views`` (the text) or ``catalog_fp`` (a
        fingerprint returned by :meth:`catalog_put`) identifies the
        catalog; ``strategy`` optionally picks a rewriter registered on
        the server (``"exhaustive"``/``"bucketed"``).
        """
        record = {"op": "rewrite", "query": query, "views": views,
                  "catalog_fp": catalog_fp, "strategy": strategy,
                  "schema": schema, "deps": deps, "id": identifier, **budgets}
        return self.request(_drop_none(record))

    # -- catalog registration ------------------------------------------------

    def catalog_put(self, views: str, *, schema: Optional[str] = None,
                    name: Optional[str] = None,
                    identifier: Optional[str] = None,
                    **extra: Any) -> Dict[str, Any]:
        """Register a view catalog; the result carries its fingerprint."""
        record = {"op": "catalog.put", "views": views, "schema": schema,
                  "name": name, "id": identifier, **extra}
        return self.request(_drop_none(record))

    def catalog_list(self, *, identifier: Optional[str] = None,
                     **extra: Any) -> Dict[str, Any]:
        """The registered catalogs (fingerprints and counts, not texts)."""
        record = {"op": "catalog.list", "id": identifier, **extra}
        return self.request(_drop_none(record))

    def catalog_drop(self, catalog_fp: str, *,
                     identifier: Optional[str] = None,
                     **extra: Any) -> Dict[str, Any]:
        """Unregister a catalog by fingerprint."""
        record = {"op": "catalog.drop", "catalog_fp": catalog_fp,
                  "id": identifier, **extra}
        return self.request(_drop_none(record))

    # -- observability ops ---------------------------------------------------

    def obs_metrics(self, *, format: str = "json",
                    identifier: Optional[str] = None,
                    **extra: Any) -> Dict[str, Any]:
        """The server's metrics — a JSON snapshot or Prometheus text."""
        record = {"op": "obs.metrics", "format": format, "id": identifier,
                  **extra}
        return self.check(self.request(_drop_none(record)))

    def obs_trace(self, trace_id: Optional[str] = None, *, slow: bool = False,
                  limit: Optional[int] = None,
                  identifier: Optional[str] = None,
                  **extra: Any) -> Dict[str, Any]:
        """One trace's spans, recent-trace summaries, or the slow-op log.

        ``trace_id=None`` lists recent traces (or, with ``slow=True``,
        the slow-op log); passing :attr:`last_trace_id` fetches the span
        tree of this client's previous request.
        """
        record = {"op": "obs.trace", "trace_id": trace_id,
                  "slow": slow or None, "limit": limit, "id": identifier,
                  **extra}
        return self.check(self.request(_drop_none(record)))

    def obs_health(self, *, identifier: Optional[str] = None,
                   **extra: Any) -> Dict[str, Any]:
        record = {"op": "obs.health", "id": identifier, **extra}
        return self.check(self.request(_drop_none(record)))

    def obs_profile(self, action: str = "status", *,
                    interval_s: Optional[float] = None,
                    limit: Optional[int] = None,
                    identifier: Optional[str] = None,
                    **extra: Any) -> Dict[str, Any]:
        """Control or query the server's sampling profiler."""
        record = {"op": "obs.profile", "action": action,
                  "interval_s": interval_s, "limit": limit, "id": identifier,
                  **extra}
        return self.check(self.request(_drop_none(record)))


def _drop_none(record: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in record.items() if value is not None}
