"""Regenerate the wire-transcript corpus (``wire_transcripts.json``).

Run from the repository root after an *intentional* change to what the
service or fleet front end answers::

    PYTHONPATH=src python tests/golden/regenerate_wire_transcripts.py

Each corpus entry is one request line.  The script replays the whole
corpus, in order and over one connection, against a fresh 2-shard
``SolverService`` and a fresh ``FleetCoordinator`` with one registered
node, and records both normalised envelopes next to the request.
``tests/test_wire_transcripts.py`` replays the recorded requests and
requires the same envelopes; the diff of a regenerated file is the
review surface of a wire change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN_DIR.parent))

from test_wire_transcripts import (  # noqa: E402
    ADMIN_TOKEN,
    GOLDEN,
    TARGETS,
    replay,
)

from repro.api.fingerprints import catalog_fingerprint  # noqa: E402
from repro.parser import parse_schema  # noqa: E402
from repro.parser.view_parser import parse_views  # noqa: E402

SCHEMA = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS = "EMP[dept] <= DEP[dept]"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"
VIEWS = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)"
TENANT = {"schema": SCHEMA, "deps": DEPS}
TOKEN = {"admin_token": ADMIN_TOKEN}
WRONG = {"admin_token": "not-the-token"}

OPS = ("contain", "chase", "rewrite", "stats", "ping",
       "catalog.put", "catalog.list", "catalog.drop",
       "obs.metrics", "obs.trace", "obs.health", "obs.profile",
       "fleet.register", "fleet.heartbeat", "fleet.drain",
       "fleet.evacuate", "fleet.quota", "fleet.status")


def _corpus():
    """(name, request line as str or bytes) pairs, in replay order."""
    known_fp = catalog_fingerprint(parse_views(VIEWS, parse_schema(SCHEMA)))
    contain = {"query": QUERY, "query_prime": QUERY_PRIME, **TENANT}
    chase = {"op": "chase", "query": QUERY, **TENANT}
    rewrite = {"op": "rewrite", "query": QUERY_PRIME, "views": VIEWS, **TENANT}
    put = {"op": "catalog.put", "views": VIEWS, "schema": SCHEMA,
           "name": "emp-views"}
    by_fp = {"op": "rewrite", "query": QUERY_PRIME, "catalog_fp": known_fp,
             "deps": DEPS}
    node = {"name": "old-node", "host": "127.0.0.1", "port": 1,
            "protocol_version": 1, "capacity": {"total": 10}}
    records = {
        "contain": contain,
        "chase": chase,
        "rewrite": rewrite,
        "stats": {"op": "stats"},
        "ping": {"op": "ping"},
        "catalog.put": put,
        "catalog.list": {"op": "catalog.list"},
        "catalog.drop": {"op": "catalog.drop", "catalog_fp": "f" * 64},
        "obs.metrics": {"op": "obs.metrics"},
        "obs.trace": {"op": "obs.trace", "trace_id": "no-such-trace"},
        "obs.health": {"op": "obs.health"},
        "obs.profile": {"op": "obs.profile"},
        "fleet.register": {"op": "fleet.register", "node": node},
        "fleet.heartbeat": {"op": "fleet.heartbeat", "node": "node-0",
                            "pending": 0},
        "fleet.drain": {"op": "fleet.drain", "node": "ghost"},
        "fleet.evacuate": {"op": "fleet.evacuate", "node": "ghost"},
        "fleet.quota": {"op": "fleet.quota", "schema_fp": "s" * 8,
                        "deps_fp": "d" * 8,
                        "quota": {"max_request_cost": 5}},
        "fleet.status": {"op": "fleet.status"},
    }

    # -- lines that are not a JSON object ------------------------------------
    yield "empty line", ""
    yield "blank line", "  \t "
    yield "bad json", "not json"
    yield "truncated json", '{"id": "t1", "op": "ping"'
    yield "json array", "[1, 2]"
    yield "json string", '"ping"'
    yield "json number", "42"
    yield "json null", "null"
    yield "bad utf-8 with id", b'{"id": "u1", "op": "ping", "x": "\xff"}'
    yield "bad utf-8 only", b"\xff\xfe"

    # -- the op field from outside -------------------------------------------
    for name, op in (("string", "nonsense"), ("number", 7), ("null", None),
                     ("list", ["ping"]), ("object", {"name": "ping"}),
                     ("bool", True)):
        yield f"op is a {name}", {"id": f"op-{name}", "op": op}
    yield "op unknown fleet.* with token", {"op": "fleet.nonsense", **TOKEN}
    yield "op unknown obs.*", {"op": "obs.nonsense"}
    yield "no op is contain", dict(contain, id="no-op")

    # -- every op without, with a wrong, and with the admin token ------------
    for op in OPS:
        record = dict(records[op], op=op, id=f"{op}/none")
        yield f"{op} without token", record
        yield f"{op} with wrong token", dict(record, id=f"{op}/wrong", **WRONG)
    for op in OPS:
        yield f"{op} with token", dict(records[op], op=op, id=f"{op}/token",
                                       **TOKEN)

    # -- catalog registration and rewrite by fingerprint ---------------------
    yield "rewrite by known fingerprint", dict(by_fp, id="fp-known")
    yield "rewrite by fingerprint with schema", dict(by_fp, id="fp-schema",
                                                     schema=SCHEMA)
    yield "rewrite by unknown fingerprint", dict(by_fp, id="fp-unknown",
                                                 catalog_fp="0" * 64)
    yield "catalog.put again", dict(put, id="put-again", **TOKEN)
    yield "catalog.list after put", {"op": "catalog.list", "id": "list-2"}
    yield "catalog.drop known", {"op": "catalog.drop", "id": "drop-known",
                                 "catalog_fp": known_fp, **TOKEN}
    yield "rewrite by dropped fingerprint", dict(by_fp, id="fp-dropped")

    # -- missing and wrong-typed fields --------------------------------------
    missing = {
        "contain without query_prime": ("contain", "query_prime"),
        "contain without query": ("contain", "query"),
        "chase without query": ("chase", "query"),
        "rewrite without query": ("rewrite", "query"),
        "rewrite without views or catalog_fp": ("rewrite", "views"),
        "catalog.put without views": ("catalog.put", "views"),
        "catalog.drop without catalog_fp": ("catalog.drop", "catalog_fp"),
    }
    for name, (op, field) in missing.items():
        record = {key: value for key, value in records[op].items()
                  if key != field}
        record = dict(record, op=op, id=name)
        yield f"{name} without token", record
        if op.startswith("catalog."):
            yield f"{name} with token", dict(record, **TOKEN)
    wrong_types = {
        "query": ("chase", 7),
        "query_prime": ("contain", ["Q"]),
        "schema": ("contain", ["EMP(emp)"]),
        "deps": ("contain", 3),
        "views": ("rewrite", {"text": VIEWS}),
        "catalog_fp": ("rewrite", 12),
        "name": ("catalog.put", 5),
        "strategy": ("rewrite", 1.5),
    }
    for field, (op, value) in wrong_types.items():
        record = dict(records[op], op=op, id=f"{field}-type", **TOKEN)
        if field == "catalog_fp":
            record.pop("views")
        record[field] = value
        yield f"{field} of the wrong type", record
    yield "variant not R or O", dict(chase, id="variant", variant="Z")
    yield "variant O", dict(chase, id="variant-o", variant="O")
    yield "unknown rewrite strategy", dict(rewrite, id="strategy",
                                           strategy="nope")
    yield "bucketed rewrite strategy", dict(rewrite, id="bucketed",
                                            strategy="bucketed")
    yield "obs.metrics bad format", {"op": "obs.metrics", "format": "xml",
                                     **TOKEN}
    yield "obs.trace non-string id", {"op": "obs.trace", "trace_id": 7,
                                      **TOKEN}
    yield "obs.trace bad limit", {"op": "obs.trace", "limit": 0, **TOKEN}
    yield "obs.profile bad action", {"op": "obs.profile", "action": "launch",
                                     **TOKEN}
    yield "fleet.register node not an object", {"op": "fleet.register",
                                                "node": "n", **TOKEN}
    yield "fleet.quota bad quota", {"op": "fleet.quota", "schema_fp": "s",
                                    "deps_fp": "d", "quota": 5, **TOKEN}
    yield "fleet.quota no tenant", {"op": "fleet.quota", "quota": None,
                                    **TOKEN}

    # -- budgets and trace contexts ------------------------------------------
    for field in ("max_conjuncts", "max_level"):
        for label, value in (("string", "x"), ("zero", 0), ("negative", -1),
                             ("bool", True), ("float", 2.5)):
            yield f"{field} {label}", dict(contain, id=f"{field}-{label}",
                                           **{field: value})
    yield "budgets within limits", dict(chase, id="budgets", max_level=2,
                                        max_conjuncts=50)
    for label, context in (("string", "abc"), ("id not a string", {"id": 7}),
                           ("parent not a string", {"id": "x", "parent": 9}),
                           ("list", []), ("object without id", {})):
        yield f"trace_context {label}", {"op": "ping", "id": f"tc-{label}",
                                         "trace_context": context}
    yield "trace_context adopted", dict(contain, id="tc-ok",
                                        trace_context={"id": "client-trace"})

    # -- parse errors in every text ------------------------------------------
    yield "schema does not parse", dict(contain, id="bad-schema",
                                        schema="NOT A SCHEMA((")
    yield "deps do not parse", dict(contain, id="bad-deps",
                                    deps="EMP[dept <= nowhere")
    yield "query does not parse", dict(contain, id="bad-query",
                                       query="Q(x :- broken(")
    yield "query_prime does not parse", dict(contain, id="bad-query-prime",
                                             query_prime="Q1(e) EMP(")
    yield "query names an unknown relation", dict(chase, id="bad-relation",
                                                  query="Q(e) :- NOPE(e)")
    yield "views do not parse", dict(rewrite, id="bad-views",
                                     views="V(e) :- ")
    yield "catalog.put views do not parse", dict(put, id="bad-put-views",
                                                 views="V(e :- EMP(", **TOKEN)
    yield "catalog.put empty views", dict(put, id="empty-put-views",
                                          views="", **TOKEN)
    yield "no schema anywhere", {"id": "no-schema", "query": QUERY,
                                 "query_prime": QUERY_PRIME}

    # -- the counters everything above moved ---------------------------------
    yield "stats at the end", {"op": "stats", "id": "stats-end"}
    yield "fleet.status at the end", dict(records["fleet.status"],
                                          id="status-end", **TOKEN)


def main() -> None:
    entries = []
    for name, request in _corpus():
        if isinstance(request, bytes):
            entries.append({"name": name, "request_hex": request.hex()})
        elif isinstance(request, str):
            entries.append({"name": name, "request": request})
        else:
            entries.append({"name": name, "request": json.dumps(request)})
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names)), "corpus names must be unique"
    for target in TARGETS:
        for entry, envelope in zip(entries, replay(target, entries)):
            entry[target] = envelope
    GOLDEN.write_text(json.dumps({"transcripts": entries}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(entries)} transcripts to {GOLDEN}")


if __name__ == "__main__":
    main()
