"""Probe events are queued on the request path and folded in when read.

:class:`~repro.obs.probe.MetricsProbe` appends each event to its
registry's queue; the registry folds the queue into its series under
its lock whenever it, or one of its instruments, is read, and whenever
the queue reaches :data:`~repro.obs.metrics.PENDING_EVENTS`.  These
tests pin what that must not change or lose:

* every read path sees every event reported before it, including an
  instrument fetched before the events;
* events from several reporting threads, read concurrently, are all
  counted;
* the queue stays under its bound and keeps neither the counting
  objects it was handed nor an uninstalled probe alive;
* for a fixed event sequence the ``obs.metrics`` document and the
  Prometheus text are byte-identical to those of the unqueued probe
  (digests pinned from the code before the queue existed).
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
import weakref

from repro.chase.engine import ChaseStatistics
from repro.obs import metrics as metrics_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import MetricsProbe
from repro.views.rewriting import RewriteReport

# Digests of the document and text below, computed before probe events
# were queued (every hook then folded into the registry as it fired).
SNAPSHOT_DIGEST = "8be42d59c1c91499219474246f2324335533371033f70cd4b6ffe7869df02f16"
PROMETHEUS_DIGEST = "2e445092f82c46e0981b7558883f35e7550bdc7b7727f2bb5c5753f0d29c717f"

#: Reporting threads in the concurrency test, and events per thread.
THREADS = 4
EVENTS_PER_THREAD = 3000


def report(probe):
    """A fixed event sequence touching every family, bucket range and label."""
    for op, elapsed_s, cache_hit in (
            ("contain", 0.0004, False), ("contain", 0.0004, True),
            ("chase", 0.003, None), ("rewrite", 0.75, False),
            ("contain", 12.0, False), ("optimize", 0.02, None)):
        probe.request(op, elapsed_s, cache_hit)
    probe.chase("columnar", 0.0012, ChaseStatistics(
        ind_steps=3, triggers_examined=11, interned_terms=9, column_probes=2),
        7, True, False)
    probe.chase("columnar", 0.3, ChaseStatistics(
        ind_steps=40, fd_steps=2, merged_conjuncts=1, union_find_unions=1,
        union_find_finds=6), 2600, False, False)
    probe.chase("legacy", 0.00001, ChaseStatistics(fd_steps=1), 1, False, True)
    for found in (1, 0, 2, 1):
        probe.homomorphism(3, found)
    probe.rewrite(RewriteReport(
        original=None, dependencies=None, catalog_size=3,
        rewritings=[object(), object()], images_found=4, candidates_tried=5,
        views_pruned=1, candidates_deduped=0))
    probe.rewrite(RewriteReport(original=None, dependencies=None,
                                catalog_size=1, candidates_tried=1))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDocuments:
    def test_snapshot_and_text_match_the_unqueued_probe(self):
        # Also run against the code before the queue, to pin its output.
        registry = MetricsRegistry()
        report(MetricsProbe(registry))
        document = registry.snapshot()
        assert digest(json.dumps(document, sort_keys=True)) == SNAPSHOT_DIGEST
        assert digest(registry.render_prometheus()) == PROMETHEUS_DIGEST
        work = document["repro_chase_work_total"]["series"]
        # Zero counts make no series; the rest add up across chases.
        assert {row["labels"]["kind"]: row["value"] for row in work} == {
            "fd_steps": 3, "ind_steps": 43, "merged_conjuncts": 1,
            "triggers_examined": 11, "interned_terms": 9,
            "union_find_unions": 1, "union_find_finds": 6,
            "column_probes": 2}

    def test_a_fresh_probe_lists_the_empty_conjunct_series(self):
        registry = MetricsRegistry()
        MetricsProbe(registry)
        series = registry.snapshot()["repro_chase_conjuncts"]["series"]
        assert [(row["labels"], row["count"]) for row in series] == [({}, 0)]


class TestEveryReadFolds:
    def test_each_read_path_sees_the_events_before_it(self):
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        requests = registry.get("repro_requests_total")  # fetched first
        seconds = registry.get("repro_request_seconds")
        probe.request("contain", 0.01, False)
        assert requests.value(op="contain", cache_hit="false") == 1.0
        probe.request("contain", 0.01, False)
        assert registry.get("repro_requests_total").value(
            op="contain", cache_hit="false") == 2.0
        probe.request("contain", 0.01, False)
        assert seconds.snapshot()["series"][0]["count"] == 3
        probe.request("contain", 0.01, False)
        assert 'op="contain"} 4' in "\n".join(seconds.render())
        probe.request("contain", 0.01, False)
        assert registry.snapshot()["repro_requests_total"]["series"][0][
            "value"] == 5.0
        probe.request("contain", 0.01, False)
        assert ('repro_requests_total{op="contain",cache_hit="false"} 6'
                in registry.render_prometheus())
        assert not registry._pending

    def test_reset_drops_queued_events(self):
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        probe.homomorphism(2, 1)
        registry.reset()
        probe.homomorphism(2, 0)
        counter = registry.get("repro_homomorphism_searches_total")
        assert counter.value(found="true") == 0
        assert counter.value(found="false") == 1.0


class TestConcurrentReports:
    def test_events_from_reporting_threads_are_all_counted(self):
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        counter = registry.get("repro_homomorphism_searches_total")
        start = threading.Barrier(THREADS + 1)
        reporting = threading.Event()
        reads = []

        def reporter():
            start.wait(timeout=10)
            for _ in range(EVENTS_PER_THREAD):
                probe.homomorphism(3, 1)
                probe.request("contain", 0.001, False)

        def reader():
            start.wait(timeout=10)
            while reporting.is_set():
                reads.append(counter.value(found="true"))
                registry.snapshot()

        saved_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reporting.set()
            threads = [threading.Thread(target=reporter, daemon=True)
                       for _ in range(THREADS)]
            watcher = threading.Thread(target=reader, daemon=True)
            for thread in (*threads, watcher):
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            reporting.clear()
            watcher.join(timeout=60)
        finally:
            sys.setswitchinterval(saved_interval)
        assert not any(thread.is_alive() for thread in (*threads, watcher))
        total = THREADS * EVENTS_PER_THREAD
        assert reads and reads == sorted(reads) and reads[-1] <= total
        assert counter.value(found="true") == total
        assert registry.get("repro_requests_total").value(
            op="contain", cache_hit="false") == total
        histogram = registry.snapshot()["repro_request_seconds"]["series"]
        assert histogram[0]["count"] == total


class TestTheQueue:
    def test_reports_only_queue(self):
        registry = MetricsRegistry()
        report(MetricsProbe(registry))
        assert len(registry._pending) == 15
        assert all(not instrument._series or instrument.name
                   == "repro_chase_conjuncts"
                   for instrument in registry._instruments.values())

    def test_the_queue_stays_under_its_bound(self):
        bound = metrics_module.PENDING_EVENTS
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        for index in range(3 * bound):
            probe.homomorphism(1, index % 2)
            assert len(registry._pending) < bound
        counter = registry.get("repro_homomorphism_searches_total")
        assert counter.value(found="true") == counter.value(
            found="false") == 1.5 * bound

    def test_pending_events_hold_no_counting_objects(self):
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        statistics = ChaseStatistics(ind_steps=2)
        rewrite = RewriteReport(original=None, dependencies=None,
                                catalog_size=1, candidates_tried=4)
        probe.chase("columnar", 0.001, statistics, 3, True, False)
        probe.rewrite(rewrite)
        references = (weakref.ref(statistics), weakref.ref(rewrite))
        del statistics, rewrite
        gc.collect()
        assert len(registry._pending) == 2
        assert [reference() for reference in references] == [None, None]
        work = registry.get("repro_rewrite_work_total")
        assert work.value(kind="candidates_tried") == 4

    def test_the_registry_keeps_no_uninstalled_probe_alive(self):
        registry = MetricsRegistry()
        probe = MetricsProbe(registry)
        probe.request("chase", 0.002, None)
        reference = weakref.ref(probe)
        del probe
        gc.collect()
        assert reference() is None
        assert registry._pending
        assert registry.get("repro_requests_total").value(
            op="chase", cache_hit="n/a") == 1.0
