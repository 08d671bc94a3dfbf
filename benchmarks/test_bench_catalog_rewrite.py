"""E22 — catalog-scale rewriting: bucketed candidate generation vs. exhaustive.

PR 10 split ``rewrite_with_views`` into a staged pipeline (catalog index
→ image discovery → candidate generation → certification → ranking)
with the candidate generator chosen by name (``views/registry.py``).
The ``bucketed`` strategy adds a signature-indexed catalog probe (views
whose bodies mention relations the chased query never touches are
pruned before image discovery) and MiniCon-style bucket growth that
discards head-variable-unsafe combinations *before* certification —
while ``exhaustive`` (the seed algorithm, verbatim) blindly enumerates
every subset of images and pays two containment calls per junk
candidate.

Workload: a 500-view LAV catalog (projections, constant selections,
binary joins, and Σ-derived key-join collapses) over a 22-relation
schema, against a 4-atom chain query with combination size 3 — the
catalog-scale regime the index is built for: the query's chase touches
a handful of relations, so most of the catalog is irrelevant, and the
junk-combination space is large enough that blind enumeration hurts.

Claims checked alongside the timings:

* **speedup** (the acceptance criterion): bucketed must finish at least
  ``BUCKETED_SPEEDUP_FLOOR`` times faster than exhaustive,
  min-over-rounds against min-over-rounds (mins, not means, so
  scheduler noise on a loaded CI runner cannot manufacture or mask a
  regression);
* **differential**: bucketed certifies a rewriting whenever exhaustive
  does, with the identical best cost — the pruning may only discard
  candidates certification would reject anyway;
* **amortisation**: building the :class:`CatalogIndex` once costs a
  small fraction of a single exhaustive rewrite, so the per-fingerprint
  index cache pays for itself on the first request.  Each timed build
  runs on a freshly parsed copy of the catalog: a view memoises its
  signature, so rebuilding over views that were indexed before would
  time only the posting assembly, not what a first request pays.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Solver
from repro.parser.view_parser import parse_views
from repro.views import build_catalog_index, rewrite_with_views
from repro.workloads import (
    DependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    ViewCatalogGenerator,
)

#: Bucketed must beat exhaustive by at least this factor on the
#: 500-view catalog.  Measured ~10x on the reference machine; the floor
#: keeps CI headroom while still catching a slide back into blind
#: subset enumeration.
BUCKETED_SPEEDUP_FLOOR = 5.0

#: One index build may cost at most this fraction of one exhaustive
#: rewrite (measured well under 5%).
INDEX_BUILD_CEILING = 0.5

CATALOG_SIZE = 500
ROUNDS = 3

#: Generous budgets so neither strategy truncates — the comparison is
#: full search vs. full search, not cap vs. cap.
BUDGETS = dict(max_images=256, max_combination_size=3, max_candidates=4096)


@pytest.fixture(scope="module")
def workload():
    schema = SchemaGenerator(seed=5).uniform(22, 3)
    sigma = DependencyGenerator(schema, seed=5).key_based(4)
    catalog = ViewCatalogGenerator(schema, seed=5).lav_catalog(
        CATALOG_SIZE, sigma)
    query = QueryGenerator(schema, seed=7).chain(4, name="Qe22")
    return schema, sigma, query, catalog


def _timed_rounds(query, catalog, sigma, strategy, index):
    """(best wall-clock over ROUNDS, last report) with a fresh solver per
    round so neither strategy inherits the other's containment cache."""
    times, report = [], None
    for _ in range(ROUNDS):
        solver = Solver()
        started = time.perf_counter()
        report = rewrite_with_views(query, catalog, sigma, solver=solver,
                                    strategy=strategy, catalog_index=index,
                                    **BUDGETS)
        times.append(time.perf_counter() - started)
    return min(times), report


@pytest.mark.benchmark(group="E22-catalog-rewrite")
def test_e22_bucketed_beats_exhaustive_at_catalog_scale(benchmark, workload):
    _, sigma, query, catalog = workload
    index = build_catalog_index(catalog)

    bucketed_times = []

    def bucketed_run():
        solver = Solver()
        started = time.perf_counter()
        report = rewrite_with_views(query, catalog, sigma, solver=solver,
                                    strategy="bucketed", catalog_index=index,
                                    **BUDGETS)
        bucketed_times.append(time.perf_counter() - started)
        return report

    bucketed_report = benchmark.pedantic(bucketed_run, rounds=ROUNDS,
                                         iterations=1)
    exhaustive_time, exhaustive_report = _timed_rounds(
        query, catalog, sigma, "exhaustive", None)

    # Differential: neither truncated, both certified, same best cost.
    assert not exhaustive_report.search_truncated
    assert not bucketed_report.search_truncated
    assert exhaustive_report.rewritings, "the catalog should cover the chain"
    assert bucketed_report.rewritings
    assert bucketed_report.best.cost == exhaustive_report.best.cost
    # The probe did real work: most of the catalog never reached image
    # discovery, and bucket growth filtered most of what remained.
    assert bucketed_report.views_pruned > CATALOG_SIZE // 2
    assert bucketed_report.candidates_tried < exhaustive_report.candidates_tried

    speedup = exhaustive_time / max(min(bucketed_times), 1e-9)
    benchmark.extra_info["experiment"] = "E22-bucketed-vs-exhaustive"
    benchmark.extra_info["catalog_size"] = CATALOG_SIZE
    benchmark.extra_info["exhaustive_over_bucketed_wall_clock"] = round(
        speedup, 2)
    benchmark.extra_info["views_pruned"] = bucketed_report.views_pruned
    benchmark.extra_info["candidates_tried_exhaustive"] = (
        exhaustive_report.candidates_tried)
    benchmark.extra_info["candidates_tried_bucketed"] = (
        bucketed_report.candidates_tried)
    benchmark.extra_info["rewritings"] = len(bucketed_report.rewritings)
    assert speedup >= BUCKETED_SPEEDUP_FLOOR, (
        f"bucketed only {speedup:.2f}x faster than exhaustive "
        f"(floor {BUCKETED_SPEEDUP_FLOOR}x) on the "
        f"{CATALOG_SIZE}-view catalog")


def _fresh_copy(catalog_text, schema):
    """The catalog parsed anew: its views have no memoised signatures."""
    copy = parse_views(catalog_text, schema)
    assert all(view._signature is None for view in copy)
    return copy


@pytest.mark.benchmark(group="E22-catalog-rewrite")
def test_e22_index_build_amortises_on_first_request(benchmark, workload):
    schema, sigma, query, catalog = workload
    catalog_text = "\n".join(str(view) for view in catalog)

    index = benchmark.pedantic(
        build_catalog_index, rounds=ROUNDS, iterations=1,
        setup=lambda: ((_fresh_copy(catalog_text, schema),), {}))
    assert len(index) == CATALOG_SIZE
    assert index.indexes(catalog)

    build_times = []
    for _ in range(ROUNDS):
        copy = _fresh_copy(catalog_text, schema)
        started = time.perf_counter()
        build_catalog_index(copy)
        build_times.append(time.perf_counter() - started)
    exhaustive_time, _ = _timed_rounds(
        query, catalog, sigma, "exhaustive", None)

    fraction = min(build_times) / max(exhaustive_time, 1e-9)
    benchmark.extra_info["experiment"] = "E22-index-amortisation"
    benchmark.extra_info["build_over_exhaustive_rewrite"] = round(fraction, 4)
    assert fraction <= INDEX_BUILD_CEILING, (
        f"index build costs {fraction:.2%} of one exhaustive rewrite — "
        "the per-fingerprint cache cannot amortise that")
