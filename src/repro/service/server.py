"""The asyncio NDJSON front ends: :class:`LineServer` and :class:`SolverService`.

:class:`LineServer` is the connection loop every front end shares (the
fleet coordinator subclasses it too); :class:`SolverService` answers
over a :class:`ShardedSolverPool`.  One JSON request per line in, one
envelope per line out, over TCP or a Unix socket.  Requests on one
connection are answered in order (the handler awaits each answer before
reading the next line); concurrency comes from serving many
connections, each of which may be pinned to a different shard by its
tenant's fingerprints.

Backpressure is two-layered:

* **global admission control** — at most ``max_pending`` requests may
  be in flight across all connections; request ``max_pending + 1``
  is answered immediately with an ``overloaded`` envelope instead of
  queueing without bound;
* **bounded shard inboxes** — the pool rejects submissions to a full
  shard, which likewise surfaces as an ``overloaded`` envelope.

A client that sees ``overloaded`` should back off and retry; nothing
was executed.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs import ensure_default_probe
from repro.obs.tracing import get_tracer, new_trace_id
from repro.service.pool import ShardedSolverPool
from repro.service.protocol import (
    OPS,
    STREAM_LIMIT,
    ProtocolError,
    error_envelope,
    exception_envelope,
    handle_obs_record,
    parse_line,
    peek_id,
)


class LineServer:
    """One NDJSON listener: a request line in, an envelope line out.

    The front end a solver service and a fleet coordinator share.  It
    owns the listener's lifecycle and the line format: UTF-8 decoding,
    the :data:`~repro.service.protocol.STREAM_LIMIT` line limit, and
    envelope encoding.  A subclass answers one decoded line in
    ``_answer``.

    ``unix_path`` selects a Unix socket; otherwise ``host:port`` TCP
    (``port=0`` binds an ephemeral port, reported by :attr:`address`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 slow_op_threshold: Optional[float] = None):
        if slow_op_threshold is not None and slow_op_threshold <= 0:
            raise ReproError(
                f"slow_op_threshold must be positive (or None to disable "
                f"the slow-op log), got {slow_op_threshold}")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._server: Optional[asyncio.AbstractServer] = None
        # Running a server is opting into observability: install the
        # default metrics probe (never displacing a custom one) and arm
        # the slow-op log if asked.  Both are process-wide by design —
        # the ``obs.*`` ops answer for the process, not one server.
        ensure_default_probe()
        if slow_op_threshold is not None:
            get_tracer().slow_log.threshold_s = slow_op_threshold

    @property
    def address(self) -> Tuple[str, Any]:
        """``("unix", path)`` or ``("tcp", (host, port))`` once started."""
        if self._unix_path is not None:
            return ("unix", self._unix_path)
        if self._server is not None and self._server.sockets:
            return ("tcp", self._server.sockets[0].getsockname()[:2])
        return ("tcp", (self._host, self._port))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self._unix_path,
                limit=STREAM_LIMIT)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self._host, port=self._port,
                limit=STREAM_LIMIT)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def run_in_thread(self) -> "ServiceThread":
        """Start the server on a daemon thread; returns a stoppable handle.

        For tests, examples, and embedding the server next to other
        work — the caller's thread stays free while the loop serves.
        """
        return ServiceThread(self)

    # -- the connection loop -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than STREAM_LIMIT.  The rest of the line may
                    # still be in flight, so answer once and hang up.
                    await _send(writer, error_envelope(
                        None, "protocol",
                        f"request line exceeds the {STREAM_LIMIT}-byte limit"))
                    break
                if not line:
                    break
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as error:
                    # Decoding with errors="replace" would silently mangle
                    # tenant schema/deps text and route the request as if
                    # it were valid, so the request is still rejected —
                    # but a replace-decode is fine for *peeking the id*,
                    # which usually sits before the bad bytes, so the
                    # client can correlate the rejection with its request.
                    envelope = error_envelope(
                        peek_id(line.decode("utf-8", errors="replace")),
                        "protocol",
                        f"request line is not valid UTF-8: {error}")
                else:
                    envelope = await self._answer(text)
                await _send(writer, envelope)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-read; end quietly — a handler
            # that finishes "cancelled" makes asyncio's stream callback
            # log a spurious traceback while the loop is closing.
            pass
        finally:
            # No wait_closed(): every response was drained already, and
            # awaiting the close handshake inside a cancelled task would
            # re-raise immediately anyway.
            writer.close()

    async def _answer(self, line: str) -> Dict[str, Any]:
        raise NotImplementedError


async def _send(writer: asyncio.StreamWriter, envelope: Dict[str, Any]) -> None:
    writer.write(json.dumps(envelope, sort_keys=True,
                            default=str).encode("utf-8") + b"\n")
    await writer.drain()


class SolverService(LineServer):
    """A long-lived NDJSON solver server speaking the service protocol.

    ``max_pending=None`` disables global admission control (the shard
    inboxes still bound the queue).
    """

    def __init__(self, pool: ShardedSolverPool, host: str = "127.0.0.1",
                 port: int = 0, unix_path: Optional[str] = None,
                 max_pending: Optional[int] = None,
                 slow_op_threshold: Optional[float] = None):
        if max_pending is not None and max_pending < 0:
            # Fail at startup: a negative admission limit is always a
            # misconfiguration.  (0 is legal and sheds every data-plane
            # request — the tests use it to simulate a saturated service.)
            raise ReproError(
                f"max_pending must be non-negative (or None to disable "
                f"admission control), got {max_pending}")
        super().__init__(host, port, unix_path, slow_op_threshold)
        self._pool = pool
        self._max_pending = max_pending
        self._in_flight = 0

    @property
    def pool(self) -> ShardedSolverPool:
        return self._pool

    async def _answer(self, line: str) -> Dict[str, Any]:
        try:
            record = parse_line(line)
        except ProtocolError as error:
            return exception_envelope(error, peek_id(line))
        op = OPS[record["op"]]
        try:
            if op.family == "obs":
                # Control plane, answered by the front end from its own
                # process state — which under process-pool shards does not
                # include subprocess-side counters (thread shards see all).
                return handle_obs_record(record)
            if op.name == "stats":
                # Answered by the front end, not one shard: a service-level
                # stats op merges every shard's cache picture plus the
                # pool's routing counters into one document.
                return await self._service_stats(record)
            if (op.shed and self._max_pending is not None
                    and self._in_flight >= self._max_pending):
                return error_envelope(
                    record.get("id"), "overloaded",
                    f"service has {self._in_flight} requests in flight "
                    f"(limit {self._max_pending}); retry later")
            if op.family == "data" and record.get("trace_context") is None:
                # An untraced data-plane request still gets a server-minted
                # trace, so obs.trace / the slow-op log cover all traffic.
                record["trace_context"] = {"id": new_trace_id()}
            self._in_flight += 1
            try:
                # The pool resolves a concurrent.futures.Future from a
                # worker thread/process; wrap_future bridges it into this
                # loop.  Affinity routing parses schema/deps before a shard
                # ever sees the record, so unparsable tenant text raises
                # here and becomes a "parse" envelope.
                return await asyncio.wrap_future(self._pool.submit(record))
            finally:
                self._in_flight -= 1
        except Exception as error:
            return exception_envelope(error, record.get("id"))

    async def _service_stats(self, record: Dict[str, Any]) -> Dict[str, Any]:
        pool = self._pool
        futures = [shard.submit({"op": "stats"}) for shard in pool.shards]
        envelopes = [await asyncio.wrap_future(future) for future in futures]
        return {
            "id": record.get("id"),
            "ok": True,
            "op": "stats",
            "result": {
                "pool": pool.counters(),
                "shards": [pool.shard_snapshot(shard, envelope)
                           for shard, envelope in zip(pool.shards, envelopes)],
            },
        }


class ServiceThread:
    """A server on its own event-loop thread.

    Runs anything with async ``start``/``stop`` and an ``address``: a
    :class:`SolverService`, a fleet coordinator, or a fleet node.
    """

    def __init__(self, service: SolverService):
        self._service = service
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, name="repro-service",
                                        daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._service.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._service.stop())
        # Connection handlers blocked in readline() when the loop stopped
        # must be cancelled, or closing the loop destroys pending tasks.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    @property
    def service(self) -> SolverService:
        return self._service

    @property
    def address(self) -> Tuple[str, Any]:
        return self._service.address

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
