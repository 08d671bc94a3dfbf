"""Wire transcripts: every front-end envelope, pinned byte for byte.

``tests/golden/wire_transcripts.json`` holds a corpus of request lines
(malformed lines, every op with and without the admin token, missing and
wrong-typed fields, budget and ``trace_context`` errors, catalog
registration and rewrite by fingerprint, parse errors in every text)
and the envelope each front end answered: a 2-shard
:class:`~repro.service.server.SolverService` and a
:class:`~repro.fleet.coordinator.FleetCoordinator` with one registered
node.  These tests replay the requests, in order, over one connection
to a fresh front end of each kind, and require the same envelopes.

Only volatile fields are normalised: timings, trace ids and spans,
process identity and uptime, metric and cache snapshots, the node's
ephemeral port, and the work counters that legitimately differ between
chase engines.  Everything else (error kinds and messages, ids, shards,
results) must match exactly.

Regenerate the file after an intended wire change with
``PYTHONPATH=src python tests/golden/regenerate_wire_transcripts.py``
and review the diff.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.fleet import FleetCoordinator, FleetNode
from repro.service import ServiceClient, ShardedSolverPool, SolverService
from repro.service.protocol import STREAM_LIMIT

GOLDEN = Path(__file__).resolve().parent / "golden" / "wire_transcripts.json"
ADMIN_TOKEN = "wire-admin"
TARGETS = ("service", "fleet")

#: Keys whose values vary between runs, processes, interpreters or chase
#: engines, never between front-end implementations.
VOLATILE_KEYS = frozenset({
    # timings
    "elapsed_s", "stage_timings", "uptime_s", "started_at",
    "heartbeat_age_s",
    # tracing
    "trace_id", "spans", "traces", "traces_stored", "slow_ops",
    "threshold_s", "slow_op_threshold_s",
    # process identity and process-wide obs state
    "pid", "python", "probe", "metrics", "text", "metrics_families",
    "running", "interval_s",
    # cache snapshots and the node's ephemeral address
    "cache_stats", "address",
    # chase-engine work accounting
    "engine", "triggers_examined", "index_hits", "delta_seeded_matches",
    "trigger_cache_hits", "interned_terms", "union_find_unions",
    "union_find_finds", "column_probes",
})


def normalise(value: Any) -> Any:
    """``value`` with every volatile key's value replaced by a marker."""
    if isinstance(value, dict):
        return {key: "<volatile>" if key in VOLATILE_KEYS else normalise(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [normalise(item) for item in value]
    return value


def request_bytes(entry: Dict[str, Any]) -> bytes:
    """One corpus entry's request line, without its newline."""
    if "request_hex" in entry:
        return bytes.fromhex(entry["request_hex"])
    return entry["request"].encode("utf-8")


@contextlib.contextmanager
def front_end(target: str) -> Iterator[Tuple[str, int]]:
    """A fresh front end of one kind; yields its TCP address."""
    pools: List[ShardedSolverPool] = []
    threads = []
    try:
        if target == "service":
            pools.append(ShardedSolverPool(shard_count=2, mode="thread"))
            threads.append(SolverService(pools[0]).run_in_thread())
        else:
            coordinator = FleetCoordinator(admin_token=ADMIN_TOKEN,
                                           heartbeat_timeout=600.0)
            threads.append(coordinator.run_in_thread())
            host, port = threads[0].address[1]
            pools.append(ShardedSolverPool(shard_count=1, mode="thread"))
            node = FleetNode("node-0", pools[0], host, port, ADMIN_TOKEN,
                             heartbeat_interval=600.0)
            threads.insert(0, node.run_in_thread())
        yield threads[-1].address[1]
    finally:
        for thread in threads:
            thread.stop()
        for pool in pools:
            pool.close()


def replay(target: str, entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Send every request over one connection; the normalised envelopes."""
    envelopes = []
    with front_end(target) as (host, port):
        with socket.create_connection((host, port), timeout=60) as raw:
            stream = raw.makefile("rb")
            for entry in entries:
                raw.sendall(request_bytes(entry) + b"\n")
                line = stream.readline()
                assert line, f"{target} closed the connection at {entry['name']}"
                envelopes.append(normalise(json.loads(line)))
    return envelopes


def load_golden() -> List[Dict[str, Any]]:
    assert GOLDEN.exists(), (
        "missing wire transcripts; run PYTHONPATH=src python "
        "tests/golden/regenerate_wire_transcripts.py")
    return json.loads(GOLDEN.read_text())["transcripts"]


@pytest.mark.parametrize("target", TARGETS)
def test_envelopes_match_the_recorded_transcripts(target):
    entries = load_golden()
    actual = replay(target, entries)
    mismatches = [
        entry["name"] for entry, envelope in zip(entries, actual)
        if json.dumps(envelope, sort_keys=True)
        != json.dumps(entry[target], sort_keys=True)
    ]
    assert not mismatches, (
        f"{len(mismatches)} of {len(entries)} {target} envelopes differ from "
        f"{GOLDEN.name}: {mismatches}")


@pytest.mark.parametrize("target", TARGETS)
def test_over_limit_line_is_answered_then_the_connection_closes(target, caplog):
    with front_end(target) as (host, port):
        with socket.create_connection((host, port), timeout=60) as raw:
            # One byte past the limit and no newline: the server has read
            # everything sent when it gives up on the line.
            raw.sendall(b"x" * (STREAM_LIMIT + 1))
            stream = raw.makefile("rb")
            envelope = json.loads(stream.readline())
            assert stream.readline() == b""
        with ServiceClient(host=host, port=port) as client:
            assert client.ping()
    assert envelope == {
        "id": None, "ok": False,
        "error": {"kind": "protocol",
                  "message": f"request line exceeds the {STREAM_LIMIT}-byte limit"}}
    assert not [record for record in caplog.records
                if record.levelno >= logging.ERROR]


@pytest.mark.parametrize("target", TARGETS)
def test_line_nested_past_the_recursion_limit_is_answered(target, caplog):
    with front_end(target) as (host, port):
        with socket.create_connection((host, port), timeout=60) as raw:
            stream = raw.makefile("rb")
            raw.sendall(b"[" * 100_000 + b"\n")
            envelope = json.loads(stream.readline())
            raw.sendall(b'{"op": "ping", "id": "after"}\n')
            pong = json.loads(stream.readline())
    assert envelope == {
        "id": None, "ok": False,
        "error": {"kind": "protocol",
                  "message": "request nests too deeply to decode"}}
    assert pong["ok"] and pong["id"] == "after" and pong["result"]["pong"]
    assert not [record for record in caplog.records
                if record.levelno >= logging.ERROR]
