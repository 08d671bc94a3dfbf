"""The benchmark's server process: one solver service or one fleet.

Run by the load generator (``run.py``), never by hand::

    python3 servedbench/server.py --topology service --unix PATH \\
        --report PATH [--trace]

``service`` is a :class:`~repro.service.server.SolverService` over a
2-shard thread pool on a Unix socket.  ``fleet`` is a
:class:`~repro.fleet.FleetCoordinator` on a localhost TCP port with two
registered :class:`~repro.fleet.FleetNode` workers of one thread shard
each, all in this one process.  The program's own tracing stays at its
defaults.

When the process is ready it prints one JSON line (``{"ready": ...}``)
on standard output.  Signals drive the rest:

* ``SIGUSR1`` — mark the start of a timed phase: note the CPU time and
  forget the layer spans recorded so far (and write an acknowledgement
  to ``--report``);
* ``SIGUSR2`` — write the CPU time since the mark, and on a traced
  server the layer totals, to ``--report``;
* ``SIGTERM`` — stop serving, write the peak RSS to ``--report``, exit.

``--trace`` installs :class:`layers.LayerTracer` before anything is
built, so every layer's public functions are wrapped in spans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LayerTracer  # noqa: E402

ADMIN_TOKEN = "servedbench-admin"
SERVICE_SHARDS = 2
FLEET_NODES = 2
#: Heartbeats and the coordinator's sweeper stay quiet for a whole run.
QUIET_S = 3600.0


def _cpu_s() -> float:
    """CPU seconds this process has used, all threads.  Unlike wall time,
    it does not grow while the host runs other guests on our CPUs."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_json(path: Path, payload) -> None:
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(payload))
    os.replace(temporary, path)


async def _serve(args: argparse.Namespace, tracer) -> None:
    from repro.fleet import FleetCoordinator, FleetNode
    from repro.service import ShardedSolverPool, SolverService

    loop = asyncio.get_running_loop()
    report = Path(args.report)
    stopping = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)
    marked = [_cpu_s()]

    def mark() -> None:
        marked[0] = _cpu_s()
        if tracer is not None:
            tracer.reset()
        _write_json(report, {"marked": True})  # the acknowledgement

    def totals() -> None:
        payload = tracer.snapshot() if tracer is not None else {}
        _write_json(report, dict(payload, cpu_s=_cpu_s() - marked[0]))

    loop.add_signal_handler(signal.SIGUSR1, mark)
    loop.add_signal_handler(signal.SIGUSR2, totals)

    pools, stoppables = [], []
    if args.topology == "service":
        pool = ShardedSolverPool(shard_count=SERVICE_SHARDS, mode="thread")
        pools.append(pool)
        service = SolverService(pool, unix_path=args.unix)
        await service.start()
        stoppables.append(service)
        address = {"unix": args.unix}
    else:
        coordinator = FleetCoordinator(port=0, admin_token=ADMIN_TOKEN,
                                       heartbeat_timeout=QUIET_S)
        await coordinator.start()
        stoppables.append(coordinator)
        port = coordinator.address[1][1]
        for index in range(FLEET_NODES):
            pool = ShardedSolverPool(shard_count=1, mode="thread")
            pools.append(pool)
            node = FleetNode(f"node-{index}", pool, "127.0.0.1", port,
                             ADMIN_TOKEN, capacity_total=10 ** 9,
                             heartbeat_interval=QUIET_S)
            await node.start()
            stoppables.insert(0, node)
        address = {"port": port, "admin_token": ADMIN_TOKEN}
    print(json.dumps({"ready": True, **address}), flush=True)

    await stopping.wait()
    for stoppable in stoppables:
        await stoppable.stop()
    for pool in pools:
        pool.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _write_json(report, {"peak_rss_mb": peak_kb / 1024.0})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", choices=("service", "fleet"),
                        required=True)
    parser.add_argument("--unix", help="Unix socket path (service topology)")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    asyncio.run(_serve(args, tracer))


if __name__ == "__main__":
    main()
