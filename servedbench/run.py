"""Served-path benchmark: one workload against a separately launched server.

Usage, from the repository root::

    python3 servedbench/run.py --workload served_cold --seed 1 \\
        --seconds 35 --trace 0

The load generator (this process) launches ``server.py`` as its own
process, sets it up, and drives it from ``CONNECTIONS`` closed-loop
connections, one thread each, every connection replaying its own
deterministic stream from ``--seed`` for ``--seconds`` seconds.  Every
answer is checked against an oracle that does not go through the served
path.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` runs the workload twice, untraced and
then with every layer of the server wrapped in spans (``layers.py``),
and reports the per-layer metrics plus the tracing overhead.

``--tiny`` shrinks every workload for the self-test; ``--corrupt``
replaces one expected answer, which must fail the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spec  # noqa: E402
from oracles import LibraryReference  # noqa: E402
from workloads import WORKLOADS, answer_of  # noqa: E402

CONNECTIONS = 2
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
#: A tail percentile needs this many reads beyond it to be reported
#: without a warning.
TAIL_BEYOND = 10
REWRITE_STAGES = ("chase", "index_probe", "image_discovery",
                  "candidate_generation", "certification", "ranking")
ERROR_KINDS = ("protocol", "parse", "budget", "overloaded", "capacity",
               "forbidden", "internal")


class BenchmarkError(Exception):
    """The run cannot produce a result (server failed, transport broke)."""


def nearest_rank(sorted_values: List[float], percentile: float) -> float:
    index = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen clock ticks of all CPUs since boot, from
    ``/proc/stat``; ``(0, 0)`` where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(value) for value in handle.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


def unstolen_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """The share of busy CPU time between two :func:`cpu_ticks` readings
    that the hypervisor did not give to other guests.

    On a virtual machine the host may run other guests on our CPUs (CPU
    steal); a CPU-bound server then runs slower in proportion, and
    between runs this share swung from 0.67 to 1.0.  CPU-bound wall-clock
    timings are multiplied by it (rates divided), so they read as on an
    unshared host.
    """
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return 1.0 - stolen / busy if busy > 0 else 1.0


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One launched ``server.py`` process and its signal-driven reports."""

    def __init__(self, workdir: Path, label: str, topology: str, trace: bool):
        self.topology = topology
        self._report = workdir / f"{label}.report.json"
        self._log_path = workdir / f"{label}.log"
        # Relative to the repository root (this process's working
        # directory): Unix socket paths are limited to ~100 bytes.
        self._socket = os.path.relpath(workdir / f"{label}.sock", ROOT)
        command = [sys.executable, str(HERE / "server.py"),
                   "--topology", topology, "--report", str(self._report)]
        if topology == "service":
            command += ["--unix", self._socket]
        if trace:
            command.append("--trace")
        self._log = open(self._log_path, "w")
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=self._log, text=True)
        self.info: Dict[str, Any] = {}

    def wait_ready(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=START_TIMEOUT_S):
                raise BenchmarkError("server did not become ready in time")
        finally:
            selector.close()
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"server exited during start-up:\n{self.log_tail()}")
        self.info = json.loads(line)

    def log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_text()[-4000:]

    def client(self):
        from repro.service import ServiceClient
        if self.topology == "service":
            client = ServiceClient(unix_path=self._socket, trace=False,
                                   timeout=120.0)
        else:
            client = ServiceClient(port=self.info["port"], trace=False,
                                   timeout=120.0)
        return client.connect()

    def _signal_for_report(self, signum: int) -> Dict[str, Any]:
        self._report.unlink(missing_ok=True)
        self.process.send_signal(signum)
        deadline = time.monotonic() + 30.0
        while not self._report.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise BenchmarkError(f"server wrote no report:\n{self.log_tail()}")
            time.sleep(0.005)
        report = json.loads(self._report.read_text())
        self._report.unlink()
        return report

    def mark(self) -> None:
        """Start of a timed phase: the server notes its CPU time and
        forgets the layer spans recorded so far."""
        self._signal_for_report(signal.SIGUSR1)

    def totals(self) -> Dict[str, Any]:
        """CPU seconds since the mark, plus layer totals when traced."""
        return self._signal_for_report(signal.SIGUSR2)

    def stop(self) -> Dict[str, Any]:
        """Stop the server; its final report (peak RSS), if it wrote one."""
        report: Dict[str, Any] = {}
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        self.process.stdout.close()
        self._log.close()
        if self._report.exists():
            report = json.loads(self._report.read_text())
        return report


# ---------------------------------------------------------------------------
# Driving load
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One answered request, reduced to what metrics and oracles need."""

    request: Any
    done: float
    rtt: float
    ok: bool
    error: Optional[str] = None
    answer: Any = None
    #: The report details of a rewrite computed for this request.
    rewrite: Optional[Dict[str, Any]] = None


def _exchange(client, workload, request, record) -> Sample:
    started = time.perf_counter()
    envelope = client.request(record)
    done = time.perf_counter()
    if not envelope.get("ok"):
        kind = (envelope.get("error") or {}).get("kind", "internal")
        return Sample(request, done, done - started, False, error=kind)
    result = envelope["result"]
    workload.observe(request, result)
    sample = Sample(request, done, done - started, True,
                    answer=answer_of(request.kind, result))
    if request.kind == "rewrite" and not envelope.get("cache_hit"):
        sample.rewrite = {
            "stage_timings": result.get("stage_timings") or {},
            "candidates_tried": result.get("candidates_tried", 0),
            "rewritings": len(result.get("rewritings") or []),
            "views_pruned": result.get("views_pruned", 0),
            "catalog_size": result.get("catalog_size", 0),
        }
    return sample


def _stamp(record: Dict[str, Any], identifier: str,
           server: Server) -> Dict[str, Any]:
    record = dict(record, id=identifier)
    if record.get("op") == "catalog.put" and "admin_token" in server.info:
        record["admin_token"] = server.info["admin_token"]
    return record


def setup(server: Server, workload, label: str) -> List[Sample]:
    """Replay the workload's set-up records on one connection."""
    client = server.client()
    try:
        samples = []
        for serial, request in enumerate(workload.setup_requests()):
            samples.append(_exchange(client, workload, request,
                                     _stamp(request.record,
                                            f"{label}/setup/{serial}", server)))
        return samples
    finally:
        client.close()


@dataclass
class Phase:
    samples: List[Sample]
    start: float
    deadline: float
    errors: List[str] = field(default_factory=list)
    #: :func:`unstolen_share` over the phase.
    unstolen: float = 1.0


def drive(server: Server, workload, label: str, seconds: float) -> Phase:
    """``CONNECTIONS`` closed-loop threads for ``seconds`` seconds."""
    clients = [server.client() for _ in range(CONNECTIONS)]
    for client in clients:
        client.ping()
    streams = [workload.stream(index) for index in range(CONNECTIONS)]
    per_connection: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    errors: List[str] = []
    barrier = threading.Barrier(CONNECTIONS + 1)
    clock: Dict[str, float] = {}

    def loop(index: int) -> None:
        samples = per_connection[index]
        barrier.wait()
        deadline = clock["deadline"]
        try:
            for serial in range(10 ** 12):
                if time.perf_counter() >= deadline:
                    break
                request = next(streams[index])
                record = _stamp(request.record, f"{label}/{index}/{serial}",
                                server)
                samples.append(_exchange(clients[index], workload, request,
                                         record))
        except Exception as error:  # reported, and the run fails
            errors.append(f"connection {index}: {type(error).__name__}: {error}")

    threads = [threading.Thread(target=loop, args=(index,), daemon=True)
               for index in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    ticks = cpu_ticks()
    start = time.perf_counter()
    clock["deadline"] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 150.0)
        if thread.is_alive():
            errors.append("a connection did not finish")
    for client in clients:
        client.close()
    samples = sorted((sample for samples in per_connection for sample in samples),
                     key=lambda sample: sample.done)
    return Phase(samples, start, clock["deadline"], errors,
                 unstolen_share(ticks, cpu_ticks()))


def service_stats(server: Server) -> Dict[str, Any]:
    """Cache, pool and admission counters summed over the server."""
    client = server.client()
    try:
        result = client.stats()
    finally:
        client.close()
    services = ([result] if server.topology == "service"
                else [node["stats"] for node in result["nodes"]])
    totals: Dict[str, float] = {"pool.rejected": 0}
    for service in services:
        totals["pool.rejected"] += service["pool"]["rejected"]
        for shard in service["shards"]:
            for cache in ("containment", "chase", "rewrite"):
                for key in ("hits", "misses"):
                    name = f"{cache}.{key}"
                    totals[name] = totals.get(name, 0) + shard["cache_stats"][cache][key]
    coordinator = result.get("coordinator", {})
    totals["refused"] = (coordinator.get("capacity_rejections", 0)
                         + coordinator.get("quota_rejections", 0))
    return totals


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(phase: Phase, tail: float) -> Dict[str, Any]:
    """Throughput and latencies of the timed phase.

    Only requests answered by the deadline count.  Throughput is their
    number over the time from the phase's start to the last answer; the
    read p50 and the read tail, at the workload's fixed percentile, are
    over every read, and the write p50 over every write.  Throughput and
    read latencies are scaled by the phase's unstolen share.  Write
    latency is not: a write mostly waits for the interpreter lock held by
    the shards' solving, which is handed over on a wall-clock interval,
    and scaling it doubled its spread between runs.
    """
    answered = [sample for sample in phase.samples
                if sample.ok and sample.done <= phase.deadline]
    reads = sorted(sample.rtt for sample in answered if not sample.request.write)
    writes = [sample.rtt for sample in answered if sample.request.write]
    if not reads:
        raise BenchmarkError("the timed phase answered no read")
    unstolen = phase.unstolen
    return {
        "throughput_rps": (len(answered) / (answered[-1].done - phase.start)
                           / unstolen),
        "latency_p50_ms": 1000 * unstolen * statistics.median(reads),
        "latency_tail_ms": 1000 * unstolen * nearest_rank(reads, tail),
        "write_latency_p50_ms": (1000 * statistics.median(writes)
                                 if writes else 0.0),
        "reads": len(reads),
        "writes": len(writes),
        "tail_percentile": tail,
        "unstolen": unstolen,
    }


def per_layer(traced: Measured, untraced_e2e: Dict[str, Any],
              traced_e2e: Dict[str, Any]) -> Dict[str, float]:
    """Per-request layer metrics of a traced phase (see ``spec.LAYER_MAP``)."""
    samples = traced.phase.samples
    requests = max(1, len(samples))
    totals, before, after = traced.totals, traced.before, traced.after
    self_s: Dict[str, float] = totals["self_s"]
    calls: Dict[str, int] = totals["calls"]
    counters: Dict[str, float] = totals["counters"]

    def per_request_ms(seconds: float) -> float:
        return 1000.0 * seconds / requests

    metrics: Dict[str, float] = {}
    rtt_ms = 1000.0 * statistics.fmean(s.rtt for s in samples) if samples else 0.0
    metrics["client.rtt_ms"] = rtt_ms
    attributed = (sum(self_s.values()) + counters.get("pool.queue_wait.s", 0.0)
                  + totals["fleet_forward"]["self_s"])
    metrics["server.unattributed_ms"] = rtt_ms - per_request_ms(attributed)
    for span in ("protocol.parse_line", "pool.submit", "protocol.handle_record",
                 "serialization.result", "parser.parse_query", "fingerprints",
                 "solver.solve", "termination.analysis", "containment.decide",
                 "chase.construct", "chase.run", "hom.search",
                 "catalog.index_build"):
        metrics[f"{span}.self_ms"] = per_request_ms(self_s.get(span, 0.0))
    for span in ("parser.parse_query", "fingerprints", "hom.search",
                 "catalog.index_build"):
        metrics[f"{span}.calls"] = calls.get(span, 0) / requests
    metrics["pool.queue_wait_ms"] = per_request_ms(
        counters.get("pool.queue_wait.s", 0.0))
    for cache in ("containment", "chase", "rewrite"):
        hits = after.get(f"{cache}.hits", 0) - before.get(f"{cache}.hits", 0)
        misses = after.get(f"{cache}.misses", 0) - before.get(f"{cache}.misses", 0)
        metrics[f"cache.{cache}.hit_ratio"] = (hits / (hits + misses)
                                               if hits + misses else 0.0)
    for counter in ("chase.runs", "chase.conjuncts", "chase.triggers_examined"):
        metrics[counter] = counters.get(counter, 0.0) / requests

    rewrites = [s.rewrite for s in samples if s.rewrite is not None]
    for stage in REWRITE_STAGES:
        metrics[f"rewrite.stage.{stage}_ms"] = per_request_ms(
            sum(r["stage_timings"].get(stage, 0.0) for r in rewrites))
    tried = sum(r["candidates_tried"] for r in rewrites)
    catalog_views = sum(r["catalog_size"] for r in rewrites)
    metrics["rewrite.candidates_tried"] = tried / len(rewrites) if rewrites else 0.0
    metrics["rewrite.certified_share"] = (
        sum(r["rewritings"] for r in rewrites) / tried if tried else 0.0)
    metrics["rewrite.views_pruned_share"] = (
        sum(r["views_pruned"] for r in rewrites) / catalog_views
        if catalog_views else 0.0)

    metrics["fleet.forward.self_ms"] = per_request_ms(
        totals["fleet_forward"]["self_s"])
    broadcasts = counters.get("fleet.broadcast.calls", 0.0)
    metrics["fleet.broadcast_ms"] = (
        1000.0 * counters.get("fleet.broadcast.s", 0.0) / broadcasts
        if broadcasts else 0.0)
    # Measured with tracing off, like the end-to-end metrics.
    metrics["write_latency_p50_ms"] = untraced_e2e["write_latency_p50_ms"]
    metrics["fleet.admission.refused"] = after["refused"] - before["refused"]
    metrics["obs.server_spans_per_request"] = counters.get("obs.spans", 0.0) / requests
    metrics["pool.rejected"] = after["pool.rejected"] - before["pool.rejected"]
    failed = [s for s in samples if not s.ok]
    for kind in ERROR_KINDS:
        metrics[f"errors.{kind}"] = sum(1 for s in failed if s.error == kind)
    metrics["failed_share"] = len(failed) / requests
    metrics["tracing.overhead.latency_p50_ms"] = (
        traced_e2e["latency_p50_ms"] - untraced_e2e["latency_p50_ms"])
    metrics["tracing.overhead.throughput_rps"] = (
        traced_e2e["throughput_rps"] - untraced_e2e["throughput_rps"])
    return metrics


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def check_answers(checked: List[Tuple[Any, List[Sample]]],
                  corrupt: bool) -> List[str]:
    """Compare every successful answer with its oracle; the mismatches.

    ``corrupt`` replaces the first expected answer, so the run must fail.
    """
    reference = LibraryReference()
    mismatches = []
    answered = [(workload, sample) for workload, samples in checked
                for sample in samples if sample.ok]
    for workload, sample in answered:
        expected = workload.expected(sample.request, reference)
        if corrupt:
            expected, corrupt = ("corrupted", expected), False
        if sample.answer != expected:
            record = sample.request.record
            mismatches.append(
                f"{record.get('op', 'contain')} {record.get('query', '')[:80]!r}: "
                f"served {sample.answer!r}, expected {expected!r}")
    return mismatches


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    setups_s: List[float] = field(default_factory=list)
    checked: List[Tuple[Any, List[Sample]]] = field(default_factory=list)
    peak_rss_mb: float = 0.0


@dataclass
class Measured:
    """One timed phase plus the server counters around it."""

    phase: Phase
    before: Dict[str, float]
    after: Dict[str, float]
    #: The server's CPU seconds over the phase, and its layer span
    #: totals when traced.
    totals: Dict[str, Any]


def serve(args, run: Run, workdir: Path, label: str,
          seconds: Optional[float] = None, trace: bool = False
          ) -> Optional[Measured]:
    """Launch and set up a server, drive it for ``seconds`` if given, stop."""
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    ticks = cpu_ticks()
    launched = time.perf_counter()
    server = Server(workdir, label, workload.topology, trace)
    try:
        server.wait_ready()
        setup_samples = setup(server, workload, label)
        run.setups_s.append((time.perf_counter() - launched)
                            * unstolen_share(ticks, cpu_ticks()))
        run.checked.append((workload, setup_samples))
        if seconds is None:
            return None
        before = service_stats(server)
        server.mark()
        phase = drive(server, workload, label, seconds)
        totals = server.totals()
        after = service_stats(server)
        run.checked.append((workload, phase.samples))
        if phase.errors:
            raise BenchmarkError("; ".join(phase.errors))
        return Measured(phase, before, after, totals)
    except BenchmarkError:
        raise
    except Exception as error:
        raise BenchmarkError(f"{type(error).__name__}: {error}\n"
                             f"server log:\n{server.log_tail()}") from error
    finally:
        report = server.stop()
        run.peak_rss_mb = report.get("peak_rss_mb", run.peak_rss_mb)


def execute(args, workdir: Path, names: List[str]
            ) -> Tuple[Dict[str, float], Run, Phase]:
    """The run's metrics, in the order of ``names``, and what was answered."""
    run = Run()
    tail = WORKLOADS[args.workload].tail_percentile
    if not args.trace:
        for repeat in range(SETUP_REPEATS - 1):
            serve(args, run, workdir, f"s{repeat}")
        timed = serve(args, run, workdir, "t", args.seconds)
        metrics = end_to_end(timed.phase, tail)
        _describe_e2e(metrics, len(timed.phase.samples))
        metrics["server_cpu_ms_per_req"] = (
            1000.0 * timed.totals["cpu_s"] / max(1, len(timed.phase.samples)))
        metrics["server_rss_mb"] = run.peak_rss_mb
        metrics["setup_s"] = statistics.median(run.setups_s)
    else:
        plain = serve(args, run, workdir, "u", args.seconds / 2.0)
        timed = serve(args, run, workdir, "t", args.seconds / 2.0, trace=True)
        metrics = per_layer(timed, end_to_end(plain.phase, tail),
                            end_to_end(timed.phase, tail))
    return {name: metrics[name] for name in names}, run, timed.phase


def _describe_e2e(e2e: Dict[str, Any], attempted: int) -> None:
    print(f"# {attempted} requests; {e2e['reads']} reads, tail = "
          f"p{e2e['tail_percentile']:g}; {e2e['writes']} writes; "
          f"reads scaled by the unstolen share {e2e['unstolen']:.3f}")
    if e2e["reads"] * (1 - e2e["tail_percentile"] / 100.0) < TAIL_BEYOND:
        print(f"# warning: fewer than {TAIL_BEYOND} reads beyond the tail "
              "percentile; run longer")


def _print_table(metrics: Dict[str, float], units: Dict[str, str],
                 trace: bool) -> None:
    rtt = metrics.get("client.rtt_ms") or 0.0
    for name, value in metrics.items():
        unit = units[name]
        line = f"  {name:<42} {value:>14.4f} {unit}"
        if trace and unit == "ms" and rtt and name.endswith("self_ms"):
            line += f"   ({100.0 * value / rtt:5.1f}% of client.rtt_ms)"
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Served-path benchmark of the containment service.")
    benchmark = spec.load()
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="replace one expected answer (self-test)")
    args = parser.parse_args(argv)
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["per_layer" if args.trace else "end_to_end"]}

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    workdir = ROOT / ".servedbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, run, phase = execute(args, workdir, list(units))
        started = time.perf_counter()
        mismatches = check_answers(run.checked, args.corrupt)
        print(f"# oracles checked {sum(len(s) for _, s in run.checked)} "
              f"answers in {time.perf_counter() - started:.1f} s")
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    _print_table(metrics, units, bool(args.trace))
    for mismatch in mismatches[:10]:
        print(f"WRONG ANSWER: {mismatch}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": len(phase.samples),
        "failed": sum(1 for sample in phase.samples if not sample.ok),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
