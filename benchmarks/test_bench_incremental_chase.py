"""E16 — the incremental columnar chase vs. the seed scan-and-rebuild engine.

Workloads:

* **deep IND chase** (the E5 shape): a cyclic IND chain over a 3-relation
  schema with key FDs declared, chased to deep levels.  Every IND step
  adds one conjunct, so the legacy engine's per-step pairwise FD scan and
  full index rebuild grow quadratically while the columnar engine
  touches only the delta.  Acceptance: the columnar engine examines at
  least **3× fewer triggers** (measured well above 10× from level 30 on)
  *and* produces the node-for-node identical chase.
* **the E15 view-rewrite workload**: the chain-queries-over-catalog
  workload of ``test_bench_view_rewrite``, run once per engine through
  the public ``SolverConfig(chase_engine=...)`` knob.  Rewriting is many
  containment calls, each many bounded chases, so the engine swap must
  show up as a wall-clock win without any rewrite-layer change.

Both comparisons print the ``chase_statistics_report`` table so the
counters behind the assertion land in the benchmark log.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.reporting import chase_statistics_report
from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseVariant, build_engine
from repro.dependencies.functional import FunctionalDependency
from repro.workloads import (
    DependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    ViewCatalogGenerator,
)

DEEP_LEVELS = (30, 60, 100)


@pytest.fixture(scope="module")
def deep_ind_workload():
    """Cyclic INDs (infinite chase) plus key FDs on every relation."""
    schema = SchemaGenerator(seed=0).uniform(3, 3)
    generator = DependencyGenerator(schema, seed=0)
    sigma = generator.cyclic_ind_chain(width=1)
    for relation in schema:
        for fd in FunctionalDependency.key(relation, [relation.attribute_name_at(0)]):
            sigma.add(fd)
    query = QueryGenerator(schema, seed=0).chain(2)
    return query, sigma


def run_deep_chase(query, sigma, engine: str, level: int):
    config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=level,
                         max_conjuncts=5_000, record_trace=False, engine=engine)
    return build_engine(query, sigma, config).run()


@pytest.mark.benchmark(group="E16-incremental-chase")
@pytest.mark.parametrize("engine", ["columnar", "legacy"])
def test_e16_deep_chase_wall_clock(benchmark, deep_ind_workload, engine):
    """Time both engines on the same deep chase (the group shows the gap)."""
    query, sigma = deep_ind_workload
    result = benchmark(run_deep_chase, query, sigma, engine, DEEP_LEVELS[0])
    assert result.truncated and result.max_level() == DEEP_LEVELS[0]


@pytest.mark.parametrize("level", DEEP_LEVELS)
def test_e16_trigger_reduction_at_least_3x(deep_ind_workload, level):
    """Acceptance: ≥3× fewer triggers examined on deep IND chases."""
    query, sigma = deep_ind_workload
    columnar = run_deep_chase(query, sigma, "columnar", level)
    legacy = run_deep_chase(query, sigma, "legacy", level)

    # Same chase, cheaper discovery: the semantic outputs must be identical.
    assert [(n.node_id, n.level, n.conjunct.terms) for n in columnar.graph] == \
           [(n.node_id, n.level, n.conjunct.terms) for n in legacy.graph]
    assert columnar.statistics.triggers_fired == legacy.statistics.triggers_fired

    report = chase_statistics_report(
        {"columnar": columnar.statistics, "legacy": legacy.statistics},
        title=f"deep IND chase to level {level}")
    print("\n" + report)
    ratio = legacy.statistics.triggers_examined / max(1, columnar.statistics.triggers_examined)
    assert ratio >= 3.0, (
        f"columnar engine examined {columnar.statistics.triggers_examined} triggers vs "
        f"{legacy.statistics.triggers_examined} for legacy (only {ratio:.1f}x)")


def test_e16_trigger_reduction_grows_with_depth(deep_ind_workload):
    """The gap widens with depth: legacy is superlinear, columnar is linear."""
    query, sigma = deep_ind_workload
    ratios = []
    for level in DEEP_LEVELS:
        columnar = run_deep_chase(query, sigma, "columnar", level)
        legacy = run_deep_chase(query, sigma, "legacy", level)
        ratios.append(legacy.statistics.triggers_examined
                      / max(1, columnar.statistics.triggers_examined))
    assert ratios == sorted(ratios), f"ratios should be monotone, got {ratios}"
    assert ratios[-1] >= 2 * ratios[0]


def test_e16_deep_chase_wall_clock_win(deep_ind_workload):
    """Best-of-three wall clock at the deepest level: columnar ≥2× faster."""
    query, sigma = deep_ind_workload
    timings = {}
    for engine in ("columnar", "legacy"):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            run_deep_chase(query, sigma, engine, DEEP_LEVELS[-1])
            best = min(best, time.perf_counter() - started)
        timings[engine] = best
    assert timings["columnar"] * 2 < timings["legacy"], (
        f"columnar {timings['columnar']:.4f}s not 2x faster than "
        f"legacy {timings['legacy']:.4f}s")


def test_e16_view_rewrite_workload_wall_clock_win():
    """The E15 view-rewrite bench workload speeds up with no rewrite change.

    Each engine gets a fresh solver (cold caches) over the identical
    chain-queries/catalog workload of ``test_bench_view_rewrite``; the
    columnar engine must win by at least 1.5× (measured well above that —
    the rewrite search is containment-heavy, and every containment chase
    runs on the selected engine).
    """
    schema = SchemaGenerator(seed=1).uniform(6, 3)
    sigma = DependencyGenerator(schema, seed=1).key_based(4)
    queries = [QueryGenerator(schema, seed=2).chain(length, name=f"Qchain{length}")
               for length in (3, 4, 5)]
    catalog = ViewCatalogGenerator(schema, seed=1).catalog(8, sigma)

    timings = {}
    reports = {}
    for engine in ("columnar", "legacy"):
        best = float("inf")
        for _ in range(2):
            solver = Solver(SolverConfig(chase_engine=engine))
            started = time.perf_counter()
            reports[engine] = [solver.rewrite(query, catalog, sigma)
                               for query in queries]
            best = min(best, time.perf_counter() - started)
        timings[engine] = best

    # Identical rewriting decisions either way.
    for columnar_report, legacy_report in zip(reports["columnar"], reports["legacy"]):
        assert [str(r.query) for r in columnar_report.rewritings] == \
               [str(r.query) for r in legacy_report.rewritings]
    assert timings["columnar"] * 1.5 < timings["legacy"], (
        f"columnar {timings['columnar']:.4f}s not 1.5x faster than "
        f"legacy {timings['legacy']:.4f}s on the E15 workload")
