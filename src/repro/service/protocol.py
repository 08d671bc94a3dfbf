"""The service wire protocol: newline-delimited JSON requests and envelopes.

One request per line, one response envelope per line.  The request
format extends the ``repro batch`` JSONL question format — an object
with ``query`` and ``query_prime`` strings is a containment question
exactly as ``repro batch`` reads it — with an explicit ``op`` field for
the other procedures and optional inline ``schema``/``deps``/``views``
texts so one connection can serve many tenants::

    {"id": "1", "query": "Q2(e) :- EMP(e, s, d)",
     "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)",
     "schema": "EMP(emp, sal, dept)\\nDEP(dept, loc)",
     "deps": "EMP[dept] <= DEP[dept]"}
    {"op": "chase", "query": "...", "max_level": 4, "variant": "R"}
    {"op": "rewrite", "query": "...", "views": "V(e, d) :- ..."}
    {"op": "catalog.put", "views": "V(e, d) :- ..."}
    {"op": "rewrite", "query": "...", "catalog_fp": "9f3b..."}
    {"op": "stats"}
    {"op": "ping"}

A server may carry default schema/deps texts (``repro serve --schema
--deps``); a request that omits them uses the defaults.  Responses are
envelopes — ``{"id", "ok", "op", "shard", "elapsed_s", "cache_hit",
"result"}`` on success, ``{"id", "ok": false, "error": {"kind",
"message"}}`` on failure — so a client never has to guess whether a
line is an answer or a diagnostic.

Everything in this module is deliberately free of I/O: the asyncio
server, the worker pool (thread or process shards), and the tests all
call the same :func:`parse_line` / :func:`handle_record` /
:func:`shard_for` functions.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api.config import SolverConfig
from repro.api.fingerprints import (
    catalog_fingerprint,
    dependency_fingerprint,
    schema_fingerprint,
)
from repro.api.requests import ChaseRequest, ContainmentRequest, RewriteRequest
from repro.api.solver import Solver
from repro.chase.engine import ChaseVariant
from repro.containment.serialization import (
    chase_result_to_dict,
    containment_result_to_dict,
)
from repro.dependencies.dependency_set import DependencySet
from repro.exceptions import ReproError
from repro.obs import health as obs_health
from repro.obs.metrics import get_registry
from repro.obs.profiler import get_profiler
from repro.obs.tracing import get_tracer, maybe_span
from repro.parser.dependency_parser import parse_dependencies
from repro.parser.query_parser import parse_query
from repro.parser.schema_parser import parse_schema
from repro.parser.view_parser import parse_views

#: Version 2 added the fleet tier: ``fleet.*`` coordinator operations,
#: the ``capacity``/``forbidden`` error kinds, and coordinator envelopes
#: carrying a ``node`` field.  Worker-facing records are unchanged, so a
#: v1 client keeps working against both workers and coordinators.
PROTOCOL_VERSION = 2

#: Per-line buffer limit for asyncio streams speaking this protocol.
#: asyncio's default ``readline`` limit is 64 KiB, which a single chase
#: response (every chase atom, serialized) exceeds routinely; every
#: ``start_server``/``open_connection`` in the service and fleet layers
#: must pass this instead, or large-but-legitimate envelopes kill the
#: connection mid-stream.
STREAM_LIMIT = 2 ** 24  # 16 MiB

#: Tiers at a tenant-facing front end, the kuberdock ``available_for``
#: split: a coordinator answers an ``ADMIN`` op only with its admin
#: token.  A worker gates nothing, because its listener sits inside the
#: trust boundary.
ADMIN = "admin"
USER = "user"


@dataclass(frozen=True)
class Op:
    """One wire operation's facts, declared once in :data:`OPS`.

    ``family`` is ``data`` (a tenant question a shard answers; clients
    and the service stamp these with a trace context), ``control``
    (``stats``/``ping``), ``catalog``, ``obs`` or ``fleet``.  A ``shed``
    op is refused with ``overloaded`` while a service has
    ``max_pending`` requests in flight.  A ``retry`` op changes no state
    beyond caches, so a client may resend it after a transport failure.
    """

    name: str
    family: str
    available_for: str
    required: Tuple[str, ...] = ()
    shed: bool = False
    retry: bool = False


#: Every wire op.  Workers answer all but the ``fleet`` family, which
#: only a coordinator (where the member registry lives) understands.
#: ``catalog.put`` parses and fingerprints a view catalog once so a
#: ``rewrite`` may carry ``catalog_fp`` instead of ``views``; a
#: coordinator broadcasts the catalog mutations to every alive node.
#: ``obs.profile`` starts and stops the sampling profiler, so it is the
#: one observability op that is not retried.
OPS: Dict[str, Op] = {op.name: op for op in (
    Op("contain", "data", USER, ("query", "query_prime"), shed=True, retry=True),
    Op("chase", "data", USER, ("query",), shed=True, retry=True),
    Op("rewrite", "data", USER, ("query",), shed=True, retry=True),
    Op("stats", "control", USER, retry=True),
    Op("ping", "control", USER, retry=True),
    Op("catalog.put", "catalog", ADMIN, ("views",), shed=True),
    Op("catalog.list", "catalog", USER, shed=True, retry=True),
    Op("catalog.drop", "catalog", ADMIN, ("catalog_fp",), shed=True),
    Op("obs.metrics", "obs", ADMIN, retry=True),
    Op("obs.trace", "obs", ADMIN, retry=True),
    Op("obs.health", "obs", ADMIN, retry=True),
    Op("obs.profile", "obs", ADMIN),
    Op("fleet.register", "fleet", ADMIN),
    Op("fleet.heartbeat", "fleet", ADMIN),
    Op("fleet.drain", "fleet", ADMIN),
    Op("fleet.evacuate", "fleet", ADMIN),
    Op("fleet.quota", "fleet", ADMIN),
    Op("fleet.status", "fleet", ADMIN, retry=True),
)}


def _names(*families: str) -> Tuple[str, ...]:
    return tuple(name for name, op in OPS.items() if op.family in families)


#: Op-name views of :data:`OPS`, by family.  ``contain`` is the default
#: for records without an ``op`` (the ``repro batch`` question shape).
OPERATIONS = _names("data", "control")
USER_OPERATIONS = OPERATIONS
CATALOG_OPERATIONS = _names("catalog")
OBS_OPERATIONS = _names("obs")
ADMIN_OPERATIONS = _names("fleet")

#: Profiler actions ``obs.profile`` accepts.
PROFILE_ACTIONS = ("status", "start", "stop", "top", "reset")

#: Error kinds carried in error envelopes, coarse enough for a client to
#: switch on: ``protocol`` (malformed line/record), ``parse`` (schema,
#: dependency, query, or view text did not parse), ``budget`` (a budget
#: field is invalid or above the server's limit), ``overloaded``
#: (admission control rejected the request), ``capacity`` (the fleet has
#: no chase-node budget left for this request — the envelope carries a
#: ``capacity`` detail object), ``forbidden`` (an admin-tier operation
#: without the admin token), ``internal`` (unexpected).
ERROR_KINDS = ("protocol", "parse", "budget", "overloaded", "capacity",
               "forbidden", "internal")


class ProtocolError(ReproError):
    """A request violates the wire protocol (carries an error kind)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind if kind in ERROR_KINDS else "internal"


class ServiceOverloaded(ReproError):
    """Admission control rejected a request (queues full)."""


@dataclass(frozen=True)
class ServiceDefaults:
    """Server-side default texts a request may omit."""

    schema_text: Optional[str] = None
    deps_text: Optional[str] = None


@dataclass(frozen=True)
class ServiceLimits:
    """Per-request budget ceilings the server enforces.

    Client-supplied budgets are clamped to these, so one tenant cannot
    buy an unbounded chase on a shared service.  Non-positive ceilings
    are a front-end misconfiguration; they fail here, at construction,
    rather than per-request deep inside a shard.
    """

    max_conjuncts: int = 100_000
    max_level: int = 64

    def __post_init__(self) -> None:
        if self.max_conjuncts <= 0:
            raise ReproError(
                f"ServiceLimits.max_conjuncts must be positive, got {self.max_conjuncts}")
        if self.max_level <= 0:
            raise ReproError(
                f"ServiceLimits.max_level must be positive, got {self.max_level}")


class TenantParser:
    """Memoised parsing of schema/deps/views texts.

    Tenants repeat: the same schema text arrives on every request of a
    tenant, so each front end keeps one small text→object memo instead
    of re-tokenizing per request, and a pool's thread and inline shards
    read their pool's.  Bounded by dropping the oldest half when full
    (tenant counts are small; precise LRU order is not worth the
    bookkeeping here).

    Consecutive versions of a catalog share most of their lines, so
    each schema text also keeps an intern table from a view line to the
    :class:`~repro.views.view.View` parsed from it over that schema
    object: a new version parses only its new lines.  The table holds
    its views weakly, so a view lives exactly as long as some memoised
    catalog holds it, and it is dropped with its schema, so one catalog
    never mixes equal but distinct schema objects.

    Shared by threads without a lock: every memo is read with ``get``
    and then set, so an eviction by another thread's :meth:`_bound` is a
    miss, never a ``KeyError``, and racing first parses store equal
    values.
    """

    def __init__(self, max_entries: int = 256):
        self._max_entries = max_entries
        self._schemas: Dict[str, Tuple[Any, "weakref.WeakValueDictionary"]] = {}
        self._dependencies: Dict[Tuple[str, str], Any] = {}
        self._catalogs: Dict[Tuple[str, str], Any] = {}

    def _bound(self, memo: Dict) -> None:
        if len(memo) > self._max_entries:
            for key in list(memo)[: self._max_entries // 2]:
                memo.pop(key, None)

    def _schema_entry(self, text: str) -> Tuple[Any, "weakref.WeakValueDictionary"]:
        """The parsed schema and its view intern table."""
        entry = self._schemas.get(text)
        if entry is None:
            entry = (parse_schema(text), weakref.WeakValueDictionary())
            self._schemas[text] = entry
            self._bound(self._schemas)
        return entry

    def schema(self, text: str):
        return self._schema_entry(text)[0]

    def dependencies(self, text: Optional[str], schema_text: str) -> DependencySet:
        key = (text or "", schema_text)
        parsed = self._dependencies.get(key)
        if parsed is None:
            schema = self.schema(schema_text)
            if text is None or not text.strip():
                parsed = DependencySet(schema=schema)
            else:
                parsed = parse_dependencies(text, schema)
            self._dependencies[key] = parsed
            self._bound(self._dependencies)
        return parsed

    def catalog(self, text: str, schema_text: str):
        key = (text, schema_text)
        catalog = self._catalogs.get(key)
        if catalog is None:
            schema, interned = self._schema_entry(schema_text)
            catalog = parse_views(text, schema, interned)
            self._catalogs[key] = catalog
            self._bound(self._catalogs)
        return catalog


class CatalogStore:
    """Registered view catalogs, addressed by content fingerprint.

    ``catalog.put`` parses a views text once, fingerprints the parsed
    catalog (:func:`~repro.api.fingerprints.catalog_fingerprint`, so a
    tenant can compute the same handle locally), and keeps the text;
    a later ``rewrite`` record carrying ``catalog_fp`` is materialised
    back into a plain rewrite by :func:`resolve_catalog_record` before
    routing.  Thread-safe: the pool front end mutates it from whatever
    thread submits, while shard threads never see it at all.

    Registration is idempotent — re-putting identical views text lands
    on the same fingerprint and simply refreshes the entry, which then
    counts as the newest for eviction.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ReproError(
                f"CatalogStore.max_entries must be positive, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, views_text: str, schema_text: str, parser: TenantParser,
            name: Optional[str] = None) -> Dict[str, Any]:
        """Parse, fingerprint, and store one catalog; returns its entry."""
        catalog = parser.catalog(views_text, schema_text)
        if len(catalog) == 0:
            raise ProtocolError("protocol",
                                "catalog.put got an empty views text")
        fingerprint = catalog_fingerprint(catalog)
        entry = {
            "fingerprint": fingerprint,
            "name": name or fingerprint[:12],
            "view_count": len(catalog),
            "views_text": views_text,
            "schema_text": schema_text,
        }
        with self._lock:
            replaced = self._entries.pop(fingerprint, None) is not None
            self._entries[fingerprint] = entry
            if len(self._entries) > self._max_entries:
                # Same bounding policy as TenantParser: drop the oldest
                # half (registration counts are small; precise LRU order
                # is not worth the bookkeeping).
                for key in list(self._entries)[: self._max_entries // 2]:
                    del self._entries[key]
        return dict(entry, replaced=replaced)

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._entries.get(fingerprint)

    def drop(self, fingerprint: str) -> bool:
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def rows(self) -> List[Dict[str, Any]]:
        """Public listing rows — everything except the (large) texts."""
        with self._lock:
            return [{"fingerprint": entry["fingerprint"],
                     "name": entry["name"],
                     "view_count": entry["view_count"]}
                    for entry in self._entries.values()]

    def entries(self) -> List[Dict[str, Any]]:
        """Full entries (texts included) — how a coordinator replays its
        registered catalogs to a node that joined after the ``put``."""
        with self._lock:
            return [dict(entry) for entry in self._entries.values()]


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def decode_line(line: str) -> Dict[str, Any]:
    """One wire line → its JSON object, not yet validated."""
    stripped = line.strip()
    if not stripped:
        raise ProtocolError("protocol", "empty request line")
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ProtocolError("protocol", f"request is not valid JSON: {error}")
    except RecursionError:
        # Nested past the interpreter's recursion limit (say 100,000
        # ``[``): the decoder gives up before it can say whether the
        # line is JSON at all.
        raise ProtocolError("protocol", "request nests too deeply to decode")
    if not isinstance(record, dict):
        raise ProtocolError(
            "protocol", f"request must be a JSON object, got {type(record).__name__}")
    return record


def parse_line(line: str) -> Dict[str, Any]:
    """One wire line → a validated record dict (op resolved and checked)."""
    return validate_record(decode_line(line))


def peek_id(line: str) -> Optional[Any]:
    """Best-effort extraction of ``id`` from a line that failed validation."""
    try:
        return decode_line(line).get("id")
    except ProtocolError:
        return None


def op_of(record: Dict[str, Any]) -> Optional[Op]:
    """The declared op a record names (``contain`` when it names none).

    ``None`` for an unknown name, and for an ``op`` that is not a string:
    the field comes from outside, and a list or an object would make the
    table lookup raise.
    """
    name = record.get("op", "contain")
    return OPS.get(name) if isinstance(name, str) else None


def validate_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Structural validation; returns the record with ``op`` made explicit."""
    op = op_of(record)
    if op is None or op.family == "fleet":
        raise ProtocolError(
            "protocol",
            f"unknown op {record.get('op', 'contain')!r}; expected one of "
            f"{OPERATIONS + CATALOG_OPERATIONS + OBS_OPERATIONS}")
    record = dict(record, op=op.name)
    context = record.get("trace_context")
    if context is not None:
        if not isinstance(context, dict) or not isinstance(context.get("id"), str):
            raise ProtocolError(
                "protocol",
                "'trace_context' must be an object with a string 'id'")
        parent = context.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ProtocolError(
                "protocol", "'trace_context.parent' must be a string")
    if op.family == "obs":
        return _validate_obs_record(record)
    for key in op.required:
        if key not in record:
            raise ProtocolError("protocol", f"op {op.name!r} requires a {key!r} field")
    if op.name == "rewrite" and "views" not in record and "catalog_fp" not in record:
        raise ProtocolError(
            "protocol",
            "op 'rewrite' requires a 'views' text or a registered 'catalog_fp'")
    for key in ("query", "query_prime", "schema", "deps", "views",
                "catalog_fp", "name", "strategy"):
        if key in record and record[key] is not None and not isinstance(record[key], str):
            raise ProtocolError(
                "protocol",
                f"{key!r} must be a string, got {type(record[key]).__name__}")
    for key in ("max_conjuncts", "max_level"):
        if key in record and record[key] is not None:
            if isinstance(record[key], bool) or not isinstance(record[key], int):
                raise ProtocolError(
                    "budget",
                    f"{key!r} must be an integer, got {type(record[key]).__name__}")
            if record[key] <= 0:
                raise ProtocolError("budget", f"{key!r} must be positive")
    variant = record.get("variant")
    if variant is not None and variant not in ("R", "O"):
        raise ProtocolError("protocol", f"variant must be 'R' or 'O', got {variant!r}")
    return record


def _validate_obs_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Structural checks for the ``obs.*`` tier."""
    op = record["op"]
    fmt = record.get("format")
    if op == "obs.metrics" and fmt is not None and fmt not in ("json", "prometheus"):
        raise ProtocolError(
            "protocol", f"'format' must be 'json' or 'prometheus', got {fmt!r}")
    if op == "obs.trace":
        trace_id = record.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ProtocolError("protocol", "'trace_id' must be a string")
    if op == "obs.profile":
        action = record.get("action", "status")
        if action not in PROFILE_ACTIONS:
            raise ProtocolError(
                "protocol",
                f"'action' must be one of {PROFILE_ACTIONS}, got {action!r}")
    limit = record.get("limit")
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
            raise ProtocolError("protocol", "'limit' must be a positive integer")
    return record


def handle_obs_record(record: Dict[str, Any],
                      shard: Optional[int] = None) -> Dict[str, Any]:
    """Answer one ``obs.*`` record from this process's observability state.

    Never raises, for the same reason as :func:`handle_record`.  Answers
    reflect the *answering process*: a front end answers from its own
    registry and trace store, which — under process-pool shards — does
    not include counters incremented inside shard subprocesses.  (Thread
    shards and the coordinator, which absorbs node spans, see
    everything.)
    """
    identifier = record.get("id")
    try:
        record = validate_record(record)
        op = record["op"]
        if op == "obs.metrics":
            if record.get("format") == "prometheus":
                result: Dict[str, Any] = {
                    "format": "prometheus",
                    "text": get_registry().render_prometheus(),
                }
            else:
                result = {"format": "json", "metrics": get_registry().snapshot()}
        elif op == "obs.trace":
            result = _obs_trace_result(record)
        elif op == "obs.health":
            result = obs_health()
        else:  # obs.profile
            result = _obs_profile_result(record)
        return _success_envelope(record, result, 0.0, None, shard)
    except Exception as error:
        return exception_envelope(error, identifier, shard)


def _obs_trace_result(record: Dict[str, Any]) -> Dict[str, Any]:
    tracer = get_tracer()
    trace_id = record.get("trace_id")
    if trace_id is not None:
        spans = tracer.store.get(trace_id)
        return {"trace_id": trace_id, "found": spans is not None,
                "spans": spans or []}
    limit = record.get("limit") or 20
    if record.get("slow"):
        return {"slow_ops": tracer.slow_log.entries(limit),
                "threshold_s": tracer.slow_log.threshold_s}
    return {"traces": tracer.store.recent(limit)}


def _obs_profile_result(record: Dict[str, Any]) -> Dict[str, Any]:
    profiler = get_profiler()
    action = record.get("action", "status")
    if action == "start":
        interval = record.get("interval_s")
        if interval is not None and (isinstance(interval, bool)
                                     or not isinstance(interval, (int, float))
                                     or interval <= 0):
            raise ProtocolError("protocol", "'interval_s' must be a positive number")
        started = profiler.start(float(interval) if interval else None)
        return {"action": "start", "started": started,
                "running": profiler.running}
    if action == "stop":
        stopped = profiler.stop()
        return {"action": "stop", "stopped": stopped,
                "running": profiler.running}
    if action == "reset":
        profiler.reset()
        return {"action": "reset", "running": profiler.running}
    if action == "top":
        return dict(profiler.top(record.get("limit") or 20), action="top")
    return {"action": "status", "running": profiler.running,
            "interval_s": profiler.interval_s}


def _schema_text(record: Dict[str, Any], defaults: ServiceDefaults) -> str:
    text = record.get("schema") or defaults.schema_text
    if text is None:
        raise ProtocolError(
            "protocol",
            "request carries no 'schema' and the server has no default schema")
    return text


# ---------------------------------------------------------------------------
# Catalog registration (answered by the front end, never by a shard)
# ---------------------------------------------------------------------------


def handle_catalog_record(record: Dict[str, Any], store: CatalogStore,
                          defaults: ServiceDefaults = ServiceDefaults(),
                          parser: Optional[TenantParser] = None,
                          shard: Optional[int] = None) -> Dict[str, Any]:
    """Answer one ``catalog.*`` record against a catalog store.

    Never raises, for the same reason as :func:`handle_record`: on the
    wire an exception has nowhere else to go.
    """
    identifier = record.get("id")
    parser = parser if parser is not None else TenantParser()
    try:
        record = validate_record(record)
        op = record["op"]
        if op == "catalog.put":
            entry = store.put(record["views"], _schema_text(record, defaults),
                              parser, name=record.get("name"))
            result = {"fingerprint": entry["fingerprint"],
                      "name": entry["name"],
                      "view_count": entry["view_count"],
                      "replaced": entry["replaced"]}
        elif op == "catalog.list":
            result = {"catalogs": store.rows(), "count": len(store)}
        else:  # catalog.drop
            result = {"fingerprint": record["catalog_fp"],
                      "dropped": store.drop(record["catalog_fp"])}
        return _success_envelope(record, result, 0.0, None, shard)
    except Exception as error:
        return exception_envelope(error, identifier, shard)


def resolve_catalog_record(record: Dict[str, Any],
                           store: CatalogStore) -> Dict[str, Any]:
    """Materialise a rewrite-by-fingerprint record into a plain rewrite.

    Returns the record unchanged unless it is a ``rewrite`` carrying a
    ``catalog_fp`` and no inline ``views``; then the registered
    catalog's views text (and its schema text, when the record names
    none) is substituted in, so routing and the shard solver see the
    record a text-carrying tenant would have sent.  An unregistered
    fingerprint raises :class:`ProtocolError` — the tenant must
    ``catalog.put`` first.
    """
    if record.get("op") != "rewrite" or record.get("views") is not None:
        return record
    fingerprint = record.get("catalog_fp")
    if not isinstance(fingerprint, str):
        return record
    entry = store.get(fingerprint)
    if entry is None:
        raise ProtocolError(
            "protocol",
            f"unknown catalog fingerprint {fingerprint!r}; register the "
            "catalog with catalog.put first")
    resolved = dict(record, views=entry["views_text"])
    if resolved.get("schema") is None:
        resolved["schema"] = entry["schema_text"]
    return resolved


# ---------------------------------------------------------------------------
# Shard routing
# ---------------------------------------------------------------------------


def routing_fingerprints(record: Dict[str, Any], defaults: ServiceDefaults,
                         parser: TenantParser) -> Tuple[str, str]:
    """The (schema, Σ) fingerprints identifying a record's tenant."""
    schema_text = _schema_text(record, defaults)
    schema = parser.schema(schema_text)
    sigma = parser.dependencies(record.get("deps", defaults.deps_text), schema_text)
    return schema_fingerprint(schema), dependency_fingerprint(sigma)


def shard_for(schema_fp: str, deps_fp: str, shard_count: int) -> int:
    """``hash(schema_fingerprint, dependency_fingerprint) % shard_count``.

    SHA-256 over the two fingerprints rather than ``hash()``: the
    builtin is salted per process, and routing must agree between the
    front end, restarted front ends, and the tests.

    ``shard_count`` is validated where pools are *constructed*
    (:class:`~repro.service.pool.ShardedSolverPool` refuses a
    non-positive count), so a misconfigured front end fails at startup;
    the guard here is a last-resort invariant check for direct callers.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    digest = hashlib.sha256(f"{schema_fp}|{deps_fp}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def error_envelope(identifier: Optional[Any], kind: str, message: str,
                   shard: Optional[int] = None) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "id": identifier,
        "ok": False,
        "error": {"kind": kind if kind in ERROR_KINDS else "internal",
                  "message": message},
    }
    if shard is not None:
        envelope["shard"] = shard
    return envelope


def exception_envelope(error: Exception, identifier: Optional[Any],
                       shard: Optional[int] = None) -> Dict[str, Any]:
    """The error envelope for any exception a request raised.

    The one mapping every front end and worker uses: a
    :class:`ProtocolError` keeps its kind, :class:`ServiceOverloaded` is
    ``overloaded``, any other :class:`~repro.exceptions.ReproError` is a
    client text that did not parse (``parse``), and anything else is a
    bug (``internal``).  On the wire an exception has nowhere else to go.
    """
    if isinstance(error, ProtocolError):
        kind, message = error.kind, str(error)
    elif isinstance(error, ServiceOverloaded):
        kind, message = "overloaded", str(error)
    elif isinstance(error, ReproError):
        kind, message = "parse", str(error)
    else:
        kind, message = "internal", f"{type(error).__name__}: {error}"
    return error_envelope(identifier, kind, message, shard)


def _success_envelope(record: Dict[str, Any], result: Dict[str, Any],
                      elapsed_s: float, cache_hit: Optional[bool],
                      shard: Optional[int]) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "id": record.get("id"),
        "ok": True,
        "op": record["op"],
        "result": result,
        "elapsed_s": round(elapsed_s, 6),
    }
    if cache_hit is not None:
        envelope["cache_hit"] = cache_hit
    if shard is not None:
        envelope["shard"] = shard
    return envelope


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


def handle_record(record: Dict[str, Any], solver: Solver,
                  defaults: ServiceDefaults = ServiceDefaults(),
                  limits: ServiceLimits = ServiceLimits(),
                  parser: Optional[TenantParser] = None,
                  shard: Optional[int] = None) -> Dict[str, Any]:
    """Execute one validated record against a shard's solver.

    Never raises: every failure — unparsable tenant text, budget abuse,
    an unexpected engine error — becomes an error envelope, because on
    the wire an exception has nowhere else to go.

    A record carrying a valid ``trace_context`` executes under a root
    span adopted from it (``service.<op>``), so the phase spans the
    engines open land in this process's trace store; the envelope then
    carries the ``trace_id``, plus the serialized spans when the context
    asked to ``collect`` (how a coordinator absorbs a node's spans).
    """
    context = record.get("trace_context")
    tracer = get_tracer()
    if isinstance(context, dict) and isinstance(context.get("id"), str):
        op = record.get("op", "contain")
        parent = context.get("parent")
        with tracer.start_trace(
                f"service.{op}", trace_id=context["id"],
                parent_id=parent if isinstance(parent, str) else None,
                op=op) as root:
            if shard is not None:
                root.tags["shard"] = shard
            envelope = _execute_record(record, solver, defaults, limits,
                                       parser, shard)
            root.tags["ok"] = bool(envelope.get("ok"))
        envelope["trace_id"] = root.trace_id
        if context.get("collect"):
            spans = tracer.store.get(root.trace_id)
            if spans:
                envelope["spans"] = spans
        return envelope
    return _execute_record(record, solver, defaults, limits, parser, shard)


def _execute_record(record: Dict[str, Any], solver: Solver,
                    defaults: ServiceDefaults, limits: ServiceLimits,
                    parser: Optional[TenantParser],
                    shard: Optional[int]) -> Dict[str, Any]:
    parser = parser if parser is not None else TenantParser()
    identifier = record.get("id")
    try:
        record = validate_record(record)
        family = OPS[record["op"]].family
        if family == "obs":
            return handle_obs_record(record, shard)
        if family == "catalog":
            raise ProtocolError(
                "protocol",
                f"op {record['op']!r} is answered by a catalog-owning front "
                "end (pool or coordinator), not a shard solver")
        return _dispatch(record, solver, defaults, limits, parser, shard)
    except Exception as error:
        return exception_envelope(error, identifier, shard)


def _dispatch(record: Dict[str, Any], solver: Solver, defaults: ServiceDefaults,
              limits: ServiceLimits, parser: TenantParser,
              shard: Optional[int]) -> Dict[str, Any]:
    op = record["op"]
    if op == "ping":
        return _success_envelope(record, {"pong": True,
                                          "protocol_version": PROTOCOL_VERSION},
                                 0.0, None, shard)
    if op == "stats":
        return _success_envelope(
            record,
            {"cache_stats": solver.cache_stats(),
             "requests": solver.stats.total_requests},
            0.0, None, shard)

    with maybe_span("parse") as span:
        schema_text = _schema_text(record, defaults)
        schema = parser.schema(schema_text)
        sigma = parser.dependencies(record.get("deps", defaults.deps_text),
                                    schema_text)
        query = parse_query(record["query"], schema)
        if span is not None:
            span.tags.update(relations=len(schema), dependencies=len(sigma))
    max_conjuncts = min(record.get("max_conjuncts") or limits.max_conjuncts,
                        limits.max_conjuncts)
    max_level = min(record.get("max_level") or limits.max_level,
                    limits.max_level)

    if op == "contain":
        # The level ceiling also caps the termination-certified deepening
        # for general Σ, so a tenant whose weakly-acyclic rules saturate
        # very deep cannot monopolise a shard.
        config = solver.config.derive(max_conjuncts=max_conjuncts,
                                      saturation_level_cap=max_level)
        query_prime = parse_query(record["query_prime"], schema)
        response = solver.solve(ContainmentRequest(
            query, query_prime, sigma, config=config, tag=record.get("id")))
        result = containment_result_to_dict(response.result)
        result["budget"] = response.budget.as_dict()
        return _success_envelope(record, result, response.elapsed_s,
                                 response.cache_hit, shard)

    if op == "chase":
        variant = ChaseVariant(record.get("variant", "R"))
        config = solver.config.derive(variant=variant,
                                      chase_max_conjuncts=max_conjuncts)
        response = solver.solve(ChaseRequest(
            query, sigma, max_level=max_level, config=config,
            tag=record.get("id")))
        result = chase_result_to_dict(response.result,
                                      include_trace=bool(record.get("trace")))
        return _success_envelope(record, result, response.elapsed_s,
                                 response.cache_hit, shard)

    # op == "rewrite"
    views_text = record.get("views")
    if views_text is None:
        # A rewrite-by-fingerprint record reached a bare shard solver:
        # only a catalog-owning front end can resolve it (the pool does,
        # before routing — see resolve_catalog_record).
        raise ProtocolError(
            "protocol",
            f"catalog fingerprint {record.get('catalog_fp')!r} cannot be "
            "resolved here; route rewrite-by-fingerprint records through a "
            "pool or coordinator front end")
    catalog = parser.catalog(views_text, schema_text)
    # Certification is containment, so it gets contain's level ceiling.
    config = solver.config.derive(max_conjuncts=max_conjuncts,
                                  saturation_level_cap=max_level)
    if record.get("strategy") is not None:
        # Validated by SolverConfig; an unknown name raises ViewError →
        # a "parse" error envelope.
        config = config.derive(rewrite_strategy=record["strategy"])
    response = solver.solve(RewriteRequest(
        query, catalog, sigma, config=config, tag=record.get("id")))
    result = response.report.as_dict()
    return _success_envelope(record, result, response.elapsed_s,
                             response.cache_hit, shard)


def make_worker_solver(config: Optional[SolverConfig] = None,
                       persistent_cache=None) -> Solver:
    """One shard's solver: the given config with serial execution forced.

    A shard is itself the unit of parallelism; nested thread pools
    inside a shard would only fight the other shards for cores.
    """
    base = config or SolverConfig()
    return Solver(base.derive(parallelism=None, executor="serial"),
                  persistent_cache=persistent_cache)
