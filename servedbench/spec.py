"""The layer map: what each per-layer metric should move, and where.

Names, units, bounds and workloads live in ``BENCHMARK.json`` at the
repository root, which :func:`load` reads.  This module adds, for every
per-layer metric named there, the layer it measures, the end-to-end
metric it should move, and the workload it should move it on.  The
self-test checks that the two name the same per-layer metrics.

``served_warm`` is not among the workloads of ``BENCHMARK.json`` (see
``README.md``); the rows that name it are checked by running it by hand.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


#: per-layer metric -> (layer, end-to-end metric it should move, on which
#: workload).
LAYER_MAP: Dict[str, Tuple[str, str, str]] = {
    "client.rtt_ms": ("client", "latency_p50_ms", "served_warm"),
    "server.unattributed_ms": ("service.server", "latency_p50_ms",
                               "served_warm"),
    "protocol.parse_line.self_ms": ("service.protocol",
                                    "latency_p50_ms, throughput_rps",
                                    "served_warm"),
    "pool.submit.self_ms": ("service.pool", "latency_p50_ms", "served_warm"),
    "pool.queue_wait_ms": ("service.pool", "latency_tail_ms",
                           "served_warm, served_cold"),
    "protocol.handle_record.self_ms": ("service.protocol", "latency_p50_ms",
                                       "served_warm"),
    "serialization.result.self_ms": ("containment.serialization",
                                     "latency_p50_ms", "served_warm"),
    "parser.parse_query.self_ms": ("parser", "latency_p50_ms",
                                   "served_warm, fleet_catalog"),
    "parser.parse_query.calls": ("parser", "latency_p50_ms",
                                 "served_warm, fleet_catalog"),
    "fingerprints.self_ms": ("api.fingerprints", "throughput_rps",
                             "served_cold, fleet_catalog "
                             "(also served_warm latency_p50_ms)"),
    "fingerprints.calls": ("api.fingerprints", "throughput_rps",
                           "served_cold, fleet_catalog"),
    "cache.containment.hit_ratio": (
        "api.solver", "latency_p50_ms",
        "served_warm (stays 1.0), served_cold (stays ~0)"),
    "cache.chase.hit_ratio": (
        "api.solver", "latency_p50_ms",
        "served_warm (stays 1.0), served_cold (stays ~0)"),
    "cache.rewrite.hit_ratio": ("api.solver", "latency_p50_ms",
                                "served_warm (stays 1.0)"),
    "solver.solve.self_ms": ("api.solver", "latency_p50_ms", "served_cold"),
    "termination.analysis.self_ms": ("chase.termination", "latency_p50_ms",
                                     "served_cold"),
    "containment.decide.self_ms": ("containment", "latency_p50_ms",
                                   "served_cold"),
    "chase.construct.self_ms": ("chase.registry", "throughput_rps",
                                "served_cold"),
    "chase.run.self_ms": ("chase", "throughput_rps", "served_cold"),
    "chase.runs": ("chase", "throughput_rps", "served_cold"),
    "chase.conjuncts": ("chase", "throughput_rps", "served_cold"),
    "chase.triggers_examined": ("chase", "throughput_rps", "served_cold"),
    "hom.search.self_ms": ("homomorphism", "latency_tail_ms", "served_cold"),
    "hom.search.calls": ("homomorphism", "latency_tail_ms", "served_cold"),
    **{f"rewrite.stage.{stage}_ms": ("views", "throughput_rps, latency_p50_ms",
                                     "fleet_catalog")
       for stage in ("chase", "index_probe", "image_discovery",
                     "candidate_generation", "certification", "ranking")},
    "rewrite.candidates_tried": ("views", "latency_p50_ms", "fleet_catalog"),
    "rewrite.certified_share": ("views", "latency_p50_ms", "fleet_catalog"),
    "rewrite.views_pruned_share": ("views", "latency_p50_ms", "fleet_catalog"),
    "catalog.index_build.self_ms": ("views.index", "latency_tail_ms",
                                    "fleet_catalog"),
    "catalog.index_build.calls": ("views.index", "latency_tail_ms",
                                  "fleet_catalog"),
    "fleet.forward.self_ms": ("fleet", "latency_p50_ms", "fleet_catalog"),
    "fleet.broadcast_ms": ("fleet", "write_latency_p50_ms", "fleet_catalog"),
    "write_latency_p50_ms": ("service catalog store, fleet", "throughput_rps",
                             "fleet_catalog"),
    "fleet.admission.refused": ("fleet", "failed_share", "fleet_catalog"),
    "obs.server_spans_per_request": ("obs", "latency_p50_ms", "served_warm"),
    "pool.rejected": ("service", "failed_share", "all"),
    **{f"errors.{kind}": ("service, fleet", "failed_share", "all")
       for kind in ("protocol", "parse", "budget", "overloaded", "capacity",
                    "forbidden", "internal")},
    "failed_share": ("service, fleet", "failed_share", "all"),
    "tracing.overhead.latency_p50_ms": ("benchmark tracing", "latency_p50_ms",
                                        "all"),
    "tracing.overhead.throughput_rps": ("benchmark tracing", "throughput_rps",
                                        "all"),
}
