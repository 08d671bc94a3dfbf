"""Command-line interface for the containment toolkit.

The CLI exposes the library's main operations over textual inputs (the
same syntax the parser package accepts), so the paper's procedures can be
driven from a shell::

    repro contain   --schema schema.txt --deps deps.txt \
                    --query "Q2(e) :- EMP(e, s, d)" \
                    --query-prime "Q1(e) :- EMP(e, s, d), DEP(d, l)"
    repro chase     --schema schema.txt --deps deps.txt \
                    --query "Q(c) :- R(a, b, c)" --max-level 4 --variant O
    repro minimize  --schema schema.txt --deps deps.txt --query "..."
    repro infer-ind --schema schema.txt --deps deps.txt --candidate "R[a] <= S[b]"
    repro batch     --schema schema.txt --deps deps.txt --input questions.jsonl
    repro rewrite   --schema schema.txt --deps deps.txt --views views.txt \
                    --query "Q1(e) :- EMP(e, s, d), DEP(d, l)"
    repro serve     --port 7464 --shards 4 --persist cache.sqlite
    repro fleet coordinate --admin-token SECRET --port 7465
    repro fleet serve-node --name n0 --coordinator 127.0.0.1:7465 \
                    --admin-token SECRET
    repro fleet status --coordinator 127.0.0.1:7465 --admin-token SECRET

Every subcommand accepts ``--json`` for machine-readable output, so the
CLI composes with scripts.  One :class:`~repro.api.solver.Solver` is built
per invocation and shared by whatever the command does, so multi-question
commands (``batch``, ``minimize``) reuse chases and classifications across
their internal containment calls.

``batch`` reads containment questions as JSON lines — objects with
``query`` and ``query_prime`` keys and an optional ``id`` — and emits one
JSON result line per question (``-`` reads stdin); with ``--json`` a
trailing summary line carries counts and the solver's cache statistics.

``rewrite`` searches for equivalent rewritings of the query over a
catalog of materialized views (``--views``: one ``V(args) :- body``
definition per line) via chase & backchase.

Exit status: 0 when the asked question's answer is "yes" (contained /
implied / some conjunct removed / every batch question holds / a
certified rewriting exists), 1 when it is "no", 2 on usage or input
errors.  ``--deps`` may be omitted for the dependency-free case.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.api.config import SolverConfig
from repro.api.requests import ContainmentRequest
from repro.api.solver import Solver
from repro.containment.serialization import (
    certificate_to_json,
    chase_result_to_dict,
    containment_result_to_dict,
    optimization_report_to_dict,
)
from repro.chase.engine import ChaseConfig, ChaseVariant
from repro.chase.registry import available_engines
from repro.views.registry import REWRITE_STRATEGIES
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.ind_inference import ind_implied_by_axioms
from repro.exceptions import ReproError
from repro.parser.dependency_parser import parse_dependencies, parse_dependency
from repro.parser.query_parser import parse_query
from repro.parser.schema_parser import parse_schema
from repro.parser.view_parser import parse_views

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read_text(path_or_text: str) -> str:
    """Treat the argument as a file path if one exists, else as literal text."""
    try:
        path = Path(path_or_text)
        if path.exists() and path.is_file():
            return path.read_text()
    except OSError:
        # Inline text can be arbitrarily long or contain characters that are
        # not valid in a path; treat it as literal text in that case.
        pass
    return path_or_text


def _load_schema(argument: str):
    return parse_schema(_read_text(argument))


def _load_dependencies(argument: Optional[str], schema) -> DependencySet:
    if argument is None:
        return DependencySet(schema=schema)
    return parse_dependencies(_read_text(argument), schema)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True, default=str))


def _add_common_arguments(parser: argparse.ArgumentParser,
                          json_help: str = "emit a machine-readable JSON document "
                                           "instead of prose") -> None:
    parser.add_argument("--schema", required=True,
                        help="schema file or inline text (one relation per line)")
    parser.add_argument("--deps", default=None,
                        help="dependency file or inline text (FDs, INDs, and "
                             "general TGD/EGD rules, one per line)")
    parser.add_argument("--json", action="store_true", help=json_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conjunctive-query containment under FDs, INDs, and "
                    "general embedded dependencies (after Johnson & Klug, "
                    "PODS 1982)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    contain = subparsers.add_parser(
        "contain", help="decide Σ ⊨ Q ⊆ Q' (over all databases)")
    _add_common_arguments(contain)
    contain.add_argument("--query", required=True, help="the contained query Q")
    contain.add_argument("--query-prime", required=True, help="the containing query Q'")
    contain.add_argument("--certificate", default=None,
                         help="write a JSON containment certificate to this file "
                              "when containment holds")
    contain.add_argument("--max-conjuncts", type=int, default=20_000,
                         help="chase size budget (default 20000)")

    chase_cmd = subparsers.add_parser(
        "chase", help="print a bounded prefix of the chase of a query")
    _add_common_arguments(chase_cmd)
    chase_cmd.add_argument("--query", required=True)
    chase_cmd.add_argument("--max-level", type=int, default=4)
    chase_cmd.add_argument("--variant", choices=["R", "O"], default="R")
    chase_cmd.add_argument("--engine", choices=list(available_engines()),
                           default=None,
                           help="chase implementation: 'columnar' (the "
                                "interned-integer production engine, the "
                                "default) or 'legacy' (the seed scan-and-"
                                "rebuild reference engine)")
    chase_cmd.add_argument("--trace", action="store_true",
                           help="also print the application trace")

    minimize_cmd = subparsers.add_parser(
        "minimize", help="minimize a query under the dependencies")
    _add_common_arguments(minimize_cmd)
    minimize_cmd.add_argument("--query", required=True)

    infer = subparsers.add_parser(
        "infer-ind", help="decide whether an IND follows from the declared INDs")
    _add_common_arguments(infer)
    infer.add_argument("--candidate", required=True,
                       help="the candidate IND, e.g. 'R[a] <= S[b]'")

    batch = subparsers.add_parser(
        "batch", help="answer many containment questions from a JSON-lines file")
    _add_common_arguments(
        batch, json_help="append a trailing summary line (question counts plus "
                         "per-cache hit statistics) to the JSON-lines output")
    batch.add_argument("--input", required=True,
                       help="JSON-lines file of {\"query\": ..., \"query_prime\": ..., "
                            "\"id\": ...} questions, or '-' for stdin")
    batch.add_argument("--max-conjuncts", type=int, default=20_000,
                       help="chase size budget per question (default 20000)")
    batch.add_argument("--parallelism", type=int, default=None,
                       help="worker threads for the batch (default: sequential)")
    batch.add_argument("--persist", default=None, metavar="PATH",
                       help="SQLite cache file shared across invocations; "
                            "repeated runs answer from disk (the --json "
                            "summary reports the persistent tier)")
    batch.add_argument("--summary", action="store_true",
                       help="print a run summary (counts, cache hit rate) to stderr")

    rewrite = subparsers.add_parser(
        "rewrite", help="rewrite a query over materialized views "
                        "(chase & backchase)")
    _add_common_arguments(rewrite)
    rewrite.add_argument("--query", required=True, help="the query to rewrite")
    rewrite.add_argument("--views", required=True,
                         help="view definitions, file or inline text "
                              "(one 'V(args) :- body' per line)")
    rewrite.add_argument("--best-only", action="store_true",
                         help="print only the best certified rewriting")
    rewrite.add_argument("--strategy", choices=list(REWRITE_STRATEGIES),
                         default=None,
                         help="candidate-generation strategy (default: "
                              "'exhaustive'; 'bucketed' adds the signature "
                              "index and MiniCon-style buckets for large "
                              "catalogs)")
    rewrite.add_argument("--explain", action="store_true",
                         help="print per-stage pipeline timings (index probe, "
                              "image discovery, candidate generation, "
                              "certification, ranking) after the report")

    serve = subparsers.add_parser(
        "serve", help="run the long-lived sharded solver service "
                      "(newline-delimited JSON over TCP or a Unix socket)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port (default 7464; 0 picks a free port)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="serve on a Unix socket at PATH instead of TCP")
    serve.add_argument("--shards", type=int, default=4,
                       help="worker count; requests route by "
                            "hash(schema, deps fingerprints) %% shards "
                            "(default 4)")
    serve.add_argument("--mode", choices=["thread", "process"], default="thread",
                       help="shard execution: worker threads (default) or "
                            "worker processes")
    serve.add_argument("--persist", default=None, metavar="PATH",
                       help="SQLite file mirroring the caches to disk so "
                            "restarts and sibling workers start warm")
    serve.add_argument("--schema", default=None,
                       help="default schema (file or inline) for requests "
                            "that omit one")
    serve.add_argument("--deps", default=None,
                       help="default dependencies (file or inline) for "
                            "requests that omit them")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="admission-control limit on in-flight requests; "
                            "excess requests get an 'overloaded' envelope "
                            "(default 256)")
    serve.add_argument("--max-conjuncts-limit", type=int, default=100_000,
                       help="ceiling on any request's chase budget "
                            "(default 100000)")
    serve.add_argument("--slow-op-threshold", type=float, default=None,
                       metavar="SECONDS",
                       help="record the full span tree of any request "
                            "slower than this into the slow-op log "
                            "(queryable via the obs.trace op; default off)")

    fleet = subparsers.add_parser(
        "fleet", help="run or inspect a multi-node solver fleet "
                      "(coordinator + registered worker nodes)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    coordinate = fleet_sub.add_parser(
        "coordinate", help="run the fleet coordinator (affinity routing, "
                           "capacity accounting, failover)")
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument("--port", type=int, default=7465,
                            help="TCP port (default 7465; 0 picks a free port)")
    coordinate.add_argument("--admin-token", required=True,
                            help="shared secret for the admin tier "
                                 "(fleet.* operations)")
    coordinate.add_argument("--schema", default=None,
                            help="default schema (file or inline) for requests "
                                 "that omit one")
    coordinate.add_argument("--deps", default=None,
                            help="default dependencies for requests that "
                                 "omit them")
    coordinate.add_argument("--heartbeat-timeout", type=float, default=6.0,
                            help="seconds of heartbeat silence before a node "
                                 "is declared dead (default 6)")
    coordinate.add_argument("--uncertified-max-conjuncts", type=int,
                            default=2_000,
                            help="chase budget clamp for tenants whose Σ has "
                                 "no termination certificate (default 2000)")
    coordinate.add_argument("--uncertified-max-level", type=int, default=8,
                            help="level clamp for uncertified Σ (default 8)")
    coordinate.add_argument("--default-max-request-cost", type=int, default=None,
                            help="default per-request cost quota for every "
                                 "tenant (chase nodes; default unlimited)")
    coordinate.add_argument("--default-max-in-flight-cost", type=int,
                            default=None,
                            help="default in-flight cost quota for every "
                                 "tenant (chase nodes; default unlimited)")
    coordinate.add_argument("--slow-op-threshold", type=float, default=None,
                            metavar="SECONDS",
                            help="record the full span tree of any forward "
                                 "slower than this into the slow-op log "
                                 "(default off)")

    serve_node = fleet_sub.add_parser(
        "serve-node", help="run one worker node: a sharded solver service "
                           "that registers with the coordinator")
    serve_node.add_argument("--name", required=True,
                            help="the node's fleet-unique name")
    serve_node.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                            help="the coordinator's address")
    serve_node.add_argument("--admin-token", required=True)
    serve_node.add_argument("--host", default="127.0.0.1",
                            help="this node's bind address (default 127.0.0.1)")
    serve_node.add_argument("--port", type=int, default=0,
                            help="this node's TCP port (default: ephemeral)")
    serve_node.add_argument("--shards", type=int, default=4)
    serve_node.add_argument("--persist", default=None, metavar="PATH",
                            help="SQLite file mirroring this node's caches")
    serve_node.add_argument("--schema", default=None)
    serve_node.add_argument("--deps", default=None)
    serve_node.add_argument("--capacity-total", type=int, default=None,
                            help="declared chase-node budget (default: "
                                 "shards × max-conjuncts-limit)")
    serve_node.add_argument("--over-commit-ratio", type=float, default=1.0,
                            help="MAAS-style over-commit multiplier on the "
                                 "declared budget (default 1.0)")
    serve_node.add_argument("--heartbeat-interval", type=float, default=2.0)
    serve_node.add_argument("--max-pending", type=int, default=256)
    serve_node.add_argument("--max-conjuncts-limit", type=int, default=100_000)

    fleet_status = fleet_sub.add_parser(
        "status", help="print the coordinator's fleet snapshot as JSON")
    fleet_status.add_argument("--coordinator", required=True,
                              metavar="HOST:PORT")
    fleet_status.add_argument("--admin-token", required=True)

    obs = subparsers.add_parser(
        "obs", help="observability of a running service or fleet "
                    "(metrics scrape, trace lookup, profiler, health)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _add_obs_target(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--server", required=True, metavar="HOST:PORT",
                         help="the service or coordinator to query")
        sub.add_argument("--admin-token", default=None,
                         help="required when --server is a fleet coordinator "
                              "(its obs tier is admin-gated)")
        sub.add_argument("--json", action="store_true",
                         help="emit the raw JSON result")

    obs_metrics = obs_sub.add_parser(
        "metrics", help="scrape the server's metrics "
                        "(Prometheus text by default)")
    _add_obs_target(obs_metrics)
    obs_metrics.add_argument("--format", choices=["prometheus", "json"],
                             default="prometheus")

    obs_trace = obs_sub.add_parser(
        "trace", help="list recent traces, fetch one trace's span tree, "
                      "or dump the slow-op log")
    _add_obs_target(obs_trace)
    obs_trace.add_argument("--trace-id", default=None,
                           help="fetch this trace's spans (default: list "
                                "recent traces)")
    obs_trace.add_argument("--slow", action="store_true",
                           help="dump the slow-op log instead")
    obs_trace.add_argument("--limit", type=int, default=20)

    obs_top = obs_sub.add_parser(
        "top", help="the sampling profiler's hottest code sites "
                    "(start it first with --start)")
    _add_obs_target(obs_top)
    obs_top.add_argument("--start", action="store_true",
                         help="start the server's sampling profiler")
    obs_top.add_argument("--stop", action="store_true",
                         help="stop the server's sampling profiler")
    obs_top.add_argument("--interval", type=float, default=None,
                         help="sampling interval in seconds (with --start)")
    obs_top.add_argument("--limit", type=int, default=20)

    obs_health = obs_sub.add_parser(
        "health", help="the server's liveness and observability state")
    _add_obs_target(obs_health)
    return parser


def _command_contain(options: argparse.Namespace, solver: Solver) -> int:
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    query = parse_query(_read_text(options.query), schema)
    query_prime = parse_query(_read_text(options.query_prime), schema)
    result = solver.is_contained(query, query_prime, sigma,
                                 max_conjuncts=options.max_conjuncts,
                                 with_certificate=options.certificate is not None)
    if options.json:
        _emit_json(containment_result_to_dict(result))
    else:
        print(result.describe())
    if result.holds and options.certificate and result.certificate is not None:
        Path(options.certificate).write_text(certificate_to_json(result.certificate))
        if not options.json:
            print(f"certificate written to {options.certificate}")
    if not result.certain and not options.json:
        print("warning: the answer is not certain (budget exhausted or Σ outside "
              "the decidable classes)")
    return EXIT_YES if result.holds else EXIT_NO


def _command_chase(options: argparse.Namespace, solver: Solver) -> int:
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    query = parse_query(_read_text(options.query), schema)
    variant = ChaseVariant.RESTRICTED if options.variant == "R" else ChaseVariant.OBLIVIOUS
    config = ChaseConfig(variant=variant, max_level=options.max_level,
                         engine=options.engine)
    result = solver.chase(query, sigma, config)
    if options.json:
        _emit_json(chase_result_to_dict(result, include_trace=options.trace))
    else:
        print(result.describe())
        if options.trace:
            print(result.trace.describe())
    return EXIT_YES


def _command_minimize(options: argparse.Namespace, solver: Solver) -> int:
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    query = parse_query(_read_text(options.query), schema)
    report = solver.optimize(query, sigma)
    if options.json:
        _emit_json(optimization_report_to_dict(report))
    else:
        print(report.describe())
    return EXIT_YES if report.conjuncts_removed > 0 else EXIT_NO


def _command_infer_ind(options: argparse.Namespace, solver: Solver) -> int:
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    parsed = parse_dependency(_read_text(options.candidate))
    from repro.dependencies.inclusion import InclusionDependency
    candidates = [d for d in parsed if isinstance(d, InclusionDependency)]
    if not candidates:
        print("the candidate must be an inclusion dependency", file=sys.stderr)
        return EXIT_ERROR
    candidate = candidates[0]
    implied = ind_implied_by_axioms(sigma.inclusion_dependencies(), candidate, schema)
    if options.json:
        _emit_json({"candidate": str(candidate), "implied": implied})
    else:
        print(f"{candidate}: {'implied' if implied else 'not implied'} by the declared INDs")
    return EXIT_YES if implied else EXIT_NO


def _command_rewrite(options: argparse.Namespace, solver: Solver) -> int:
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    query = parse_query(_read_text(options.query), schema)
    catalog = parse_views(_read_text(options.views), schema)
    if options.strategy is not None:
        solver = Solver(solver.config.derive(rewrite_strategy=options.strategy))
    report = solver.rewrite(query, catalog, sigma)
    if options.json:
        document = report.as_dict()
        if options.best_only:
            document["rewritings"] = document["rewritings"][:1]
        document["cache_stats"] = solver.cache_stats()
        _emit_json(document)
    elif options.best_only:
        # Exactly one line when a rewriting exists, nothing otherwise, so
        # scripts can capture the output without parsing a report header.
        if report.best is not None:
            print(report.best.describe())
    else:
        print(report.describe())
        if options.explain:
            print(f"pipeline ({report.strategy}):")
            for stage, seconds in report.stage_timings.items():
                print(f"  {stage}: {seconds * 1000:.3f} ms")
    return EXIT_YES if report.rewritings else EXIT_NO


# -- batch ------------------------------------------------------------------


def _iter_batch_questions(text: str) -> Iterator[Tuple[int, dict]]:
    """Parse JSON-lines questions, skipping blanks and ``#`` comments."""
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"input line {line_number} is not valid JSON: {error}") from error
        if not isinstance(record, dict) or "query" not in record or "query_prime" not in record:
            raise ReproError(
                f"input line {line_number} must be an object with 'query' and "
                "'query_prime' keys")
        for key in ("query", "query_prime"):
            if not isinstance(record[key], str):
                raise ReproError(
                    f"input line {line_number}: {key!r} must be a string, "
                    f"got {type(record[key]).__name__}")
        yield line_number, record


def _command_batch(options: argparse.Namespace, solver: Solver) -> int:
    if options.persist:
        # A batch with persistence answers repeated invocations from disk;
        # its cache_stats (in the --json summary) then include the
        # persistent tier next to the in-memory LRUs.
        solver = Solver(solver.config.derive(persistent_cache_path=options.persist))
    schema = _load_schema(options.schema)
    sigma = _load_dependencies(options.deps, schema)
    text = sys.stdin.read() if options.input == "-" else _read_text(options.input)

    requests: List[ContainmentRequest] = []
    identifiers: List[str] = []
    config = solver.config.derive(max_conjuncts=options.max_conjuncts)
    for line_number, record in _iter_batch_questions(text):
        try:
            query = parse_query(record["query"], schema)
            query_prime = parse_query(record["query_prime"], schema)
        except ReproError as error:
            raise ReproError(f"input line {line_number}: {error}") from error
        identifier = str(record.get("id", line_number))
        identifiers.append(identifier)
        requests.append(ContainmentRequest(
            query, query_prime, sigma, config=config, tag=identifier))

    responses = solver.solve_many(
        requests, parallelism=options.parallelism,
        executor="thread" if options.parallelism else "serial")

    all_hold = True
    for identifier, request, response in zip(identifiers, requests, responses):
        result = response.result
        all_hold = all_hold and result.holds
        print(json.dumps({
            "id": identifier,
            "query": str(request.query),
            "query_prime": str(request.query_prime),
            "holds": result.holds,
            "certain": result.certain,
            "method": result.method,
            "reason": result.reason,
            "chase_size": result.chase_size,
            "elapsed_s": round(response.elapsed_s, 6),
            "cache_hit": response.cache_hit,
        }, sort_keys=True))

    if options.json:
        # A trailing summary line (the per-question lines stay unchanged):
        # counts plus the per-cache hit/miss statistics of the run.
        print(json.dumps({
            "summary": {
                "questions": len(responses),
                "hold": sum(1 for r in responses if r.holds),
                "uncertain": sum(1 for r in responses if not r.certain),
            },
            "cache_stats": solver.cache_stats(),
        }, sort_keys=True))
    if options.summary:
        info = solver.cache_info()["containment"]
        print(
            f"batch: {len(responses)} questions, "
            f"{sum(1 for r in responses if r.holds)} hold, "
            f"{sum(1 for r in responses if not r.certain)} uncertain, "
            f"containment cache hit rate {info.hit_rate:.0%}",
            file=sys.stderr)
    if not responses:
        print("error: the input contained no questions", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_YES if all_hold else EXIT_NO


def _command_serve(options: argparse.Namespace, solver: Solver) -> int:
    """Run the sharded solver service until interrupted."""
    import asyncio

    from repro.service import (
        ServiceDefaults,
        ServiceLimits,
        ShardedSolverPool,
        SolverService,
    )

    defaults = ServiceDefaults(
        schema_text=_read_text(options.schema) if options.schema else None,
        deps_text=_read_text(options.deps) if options.deps else None,
    )
    limits = ServiceLimits(max_conjuncts=options.max_conjuncts_limit)
    config = solver.config.derive(persistent_cache_path=options.persist)
    pool = ShardedSolverPool(
        shard_count=options.shards, config=config, mode=options.mode,
        defaults=defaults, limits=limits, max_pending=options.max_pending)
    service = SolverService(
        pool, host=options.host, port=options.port, unix_path=options.socket,
        max_pending=options.max_pending,
        slow_op_threshold=options.slow_op_threshold)

    async def run() -> None:
        await service.start()
        kind, where = service.address
        persist = options.persist or "off"
        print(f"repro service listening on {kind} {where} "
              f"({options.shards} {options.mode} shards, persistence {persist})",
              file=sys.stderr)
        await service.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)
    finally:
        pool.close()
    return EXIT_YES


def _parse_host_port(argument: str) -> Tuple[str, int]:
    host, separator, port_text = argument.rpartition(":")
    if not separator or not host:
        raise ReproError(
            f"expected HOST:PORT, got {argument!r}")
    try:
        return host, int(port_text)
    except ValueError:
        raise ReproError(f"port in {argument!r} is not an integer")


def _command_fleet(options: argparse.Namespace, solver: Solver) -> int:
    """Dispatch the ``repro fleet`` subcommands."""
    import asyncio

    from repro.fleet import FleetClient, FleetCoordinator, FleetNode
    from repro.fleet.capacity import AdmissionPolicy, TenantQuota
    from repro.service import ServiceDefaults, ServiceLimits, ShardedSolverPool

    if options.fleet_command == "status":
        host, port = _parse_host_port(options.coordinator)
        with FleetClient(host=host, port=port,
                         admin_token=options.admin_token) as client:
            _emit_json(client.status())
        return EXIT_YES

    defaults = ServiceDefaults(
        schema_text=_read_text(options.schema) if options.schema else None,
        deps_text=_read_text(options.deps) if options.deps else None,
    )

    if options.fleet_command == "coordinate":
        coordinator = FleetCoordinator(
            host=options.host, port=options.port,
            admin_token=options.admin_token,
            policy=AdmissionPolicy(
                uncertified_max_conjuncts=options.uncertified_max_conjuncts,
                uncertified_max_level=options.uncertified_max_level),
            default_quota=TenantQuota(
                max_request_cost=options.default_max_request_cost,
                max_in_flight_cost=options.default_max_in_flight_cost),
            defaults=defaults,
            heartbeat_timeout=options.heartbeat_timeout,
            slow_op_threshold=options.slow_op_threshold)

        async def run_coordinator() -> None:
            await coordinator.start()
            kind, where = coordinator.address
            print(f"repro fleet coordinator listening on {kind} {where}",
                  file=sys.stderr)
            await coordinator.serve_forever()

        try:
            asyncio.run(run_coordinator())
        except KeyboardInterrupt:
            print("repro fleet coordinator stopped", file=sys.stderr)
        return EXIT_YES

    # fleet_command == "serve-node"
    coordinator_host, coordinator_port = _parse_host_port(options.coordinator)
    limits = ServiceLimits(max_conjuncts=options.max_conjuncts_limit)
    config = solver.config.derive(persistent_cache_path=options.persist)
    pool = ShardedSolverPool(
        shard_count=options.shards, config=config, mode="thread",
        defaults=defaults, limits=limits, max_pending=options.max_pending)
    node = FleetNode(
        options.name, pool, coordinator_host, coordinator_port,
        options.admin_token, host=options.host, port=options.port,
        capacity_total=options.capacity_total,
        over_commit_ratio=options.over_commit_ratio,
        heartbeat_interval=options.heartbeat_interval)

    async def run_node() -> None:
        await node.start()
        kind, where = node.address
        print(f"repro fleet node {options.name!r} serving on {kind} {where}, "
              f"registered with {options.coordinator}", file=sys.stderr)
        await node.service.serve_forever()

    try:
        asyncio.run(run_node())
    except KeyboardInterrupt:
        print(f"repro fleet node {options.name!r} stopped", file=sys.stderr)
    finally:
        pool.close()
    return EXIT_YES


def _obs_client(options: argparse.Namespace):
    """A client for ``repro obs``: fleet-flavoured when a token is given."""
    from repro.fleet import FleetClient
    from repro.service import ServiceClient

    host, port = _parse_host_port(options.server)
    if options.admin_token is not None:
        return FleetClient(host=host, port=port,
                           admin_token=options.admin_token)
    return ServiceClient(host=host, port=port)


def _render_span_tree(spans: List[dict]) -> Iterator[str]:
    """The span forest as indented lines, children under their parents."""
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    known = {span.get("span_id") for span in spans}

    def walk(span: dict, depth: int) -> Iterator[str]:
        duration = span.get("duration_s")
        shown = f"{duration * 1000:.3f} ms" if duration is not None else "?"
        tags = span.get("tags") or {}
        rendered_tags = " ".join(f"{key}={value}" for key, value in tags.items())
        yield (f"{'  ' * depth}{span.get('name')}  {shown}"
               + (f"  [{rendered_tags}]" if rendered_tags else ""))
        for child in by_parent.get(span.get("span_id"), []):
            yield from walk(child, depth + 1)

    # Roots: spans whose parent is absent or unknown to this store (a
    # coordinator-absorbed tree's true root lives at the client).
    for span in spans:
        if span.get("parent_id") not in known:
            yield from walk(span, 0)


def _command_obs(options: argparse.Namespace, solver: Solver) -> int:
    """Dispatch the ``repro obs`` subcommands against a running server."""
    from repro.analysis.reporting import format_table

    with _obs_client(options) as client:
        if options.obs_command == "metrics":
            result = client.obs_metrics(format=options.format)
            if options.json:
                _emit_json(result)
            elif options.format == "prometheus":
                print(result["text"], end="")
            else:
                _emit_json(result["metrics"])
            return EXIT_YES

        if options.obs_command == "trace":
            result = client.obs_trace(options.trace_id, slow=options.slow,
                                      limit=options.limit)
            if options.json:
                _emit_json(result)
            elif options.trace_id is not None:
                if not result["found"]:
                    print(f"trace {options.trace_id} is not in the store "
                          "(evicted or never seen)", file=sys.stderr)
                    return EXIT_NO
                for line in _render_span_tree(result["spans"]):
                    print(line)
            elif options.slow:
                rows = [(entry["trace_id"], entry["name"],
                         f"{entry['duration_s'] * 1000:.1f} ms",
                         len(entry["spans"]))
                        for entry in result["slow_ops"]]
                print(format_table(("trace", "op", "duration", "spans"), rows,
                                   title="slow ops (newest first)"))
            else:
                rows = [(entry["trace_id"], entry["root"],
                         (f"{entry['duration_s'] * 1000:.1f} ms"
                          if entry["duration_s"] is not None else "?"),
                         entry["spans"])
                        for entry in result["traces"]]
                print(format_table(("trace", "root", "duration", "spans"), rows,
                                   title="recent traces (newest first)"))
            return EXIT_YES

        if options.obs_command == "top":
            if options.start:
                result = client.obs_profile("start", interval_s=options.interval)
                print(f"profiler {'started' if result['started'] else 'already running'}",
                      file=sys.stderr)
                return EXIT_YES
            if options.stop:
                result = client.obs_profile("stop")
                print(f"profiler {'stopped' if result['stopped'] else 'was not running'}",
                      file=sys.stderr)
                return EXIT_YES
            result = client.obs_profile("top", limit=options.limit)
            if options.json:
                _emit_json(result)
            else:
                rows = [(site["site"], site["function"], site["samples"],
                         f"{site['share']:.1%}") for site in result["sites"]]
                print(format_table(("site", "function", "samples", "share"),
                                   rows,
                                   title=f"profiler top ({result['samples']} "
                                         f"samples, running={result['running']})"))
            return EXIT_YES

        # obs_command == "health"
        result = client.obs_health()
        if options.json:
            _emit_json(result)
        else:
            tracer = result.get("tracer", {})
            print(f"pid {result['pid']} (python {result['python']}), "
                  f"up {result['uptime_s']:.0f}s")
            print(f"probe: {result['probe'] or 'none'}; "
                  f"metric families: {result['metrics_families']}")
            print(f"tracer: enabled={tracer.get('enabled')} "
                  f"traces_stored={tracer.get('traces_stored')} "
                  f"slow_op_threshold_s={tracer.get('slow_op_threshold_s')}")
            profiler = result.get("profiler", {})
            print(f"profiler: running={profiler.get('running')} "
                  f"interval_s={profiler.get('interval_s')}")
        return EXIT_YES


_COMMANDS = {
    "contain": _command_contain,
    "chase": _command_chase,
    "minimize": _command_minimize,
    "infer-ind": _command_infer_ind,
    "batch": _command_batch,
    "rewrite": _command_rewrite,
    "serve": _command_serve,
    "fleet": _command_fleet,
    "obs": _command_obs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status.

    One Solver serves the whole invocation, so commands that ask several
    containment questions internally share its chase and result caches.
    """
    parser = build_parser()
    options = parser.parse_args(argv)
    solver = Solver(SolverConfig())
    try:
        return _COMMANDS[options.command](options, solver)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
