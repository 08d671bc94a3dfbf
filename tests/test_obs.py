"""Tests for repro.obs: metrics, tracing, probes, the profiler, and the
observability tier of the service protocol.

Covers the PR 7 tentpole: the process-wide metrics registry (counters,
gauges, labelled histograms, Prometheus exposition), span-based tracing
with wire propagation (``trace_context``), the engine Probe hooks, the
sampling profiler, the slow-op log, and the ``obs.*`` protocol ops end
to end through a running service.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.api.solver import Solver
from repro.obs import probe as probe_module
from repro.obs.clock import Stopwatch, monotonic, wall_time
from repro.obs.metrics import (
    MetricError,
    MetricsRegistry,
)
from repro.obs.probe import MetricsProbe, Probe
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracing import (
    SlowOpLog,
    TraceStore,
    Tracer,
    current_span,
    get_tracer,
    maybe_span,
    new_span_id,
    new_trace_id,
)
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.service import (
    ServiceClient,
    ServiceDefaults,
    ShardedSolverPool,
    SolverService,
)
from repro.service.protocol import (
    OBS_OPERATIONS,
    OPERATIONS,
    handle_obs_record,
    handle_record,
    validate_record,
)
from repro.service.protocol import ProtocolError

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"

DEFAULTS = ServiceDefaults(schema_text=SCHEMA_TEXT, deps_text=DEPS_TEXT)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def fresh_probe():
    """A MetricsProbe on a private registry, installed for the test."""
    registry = MetricsRegistry()
    previous = probe_module.uninstall()
    probe = MetricsProbe(registry)
    probe_module.install(probe)
    yield probe
    probe_module.uninstall()
    if previous is not None:
        probe_module.install(previous)


def parsed_inputs():
    schema = parse_schema(SCHEMA_TEXT)
    sigma = parse_dependencies(DEPS_TEXT, schema)
    query = parse_query(QUERY, schema)
    query_prime = parse_query(QUERY_PRIME, schema)
    return schema, sigma, query, query_prime


# ---------------------------------------------------------------------------
# Clock helpers
# ---------------------------------------------------------------------------


class TestClock:
    def test_wall_time_is_epoch_seconds(self):
        assert abs(wall_time() - time.time()) < 5.0

    def test_monotonic_never_goes_backwards(self):
        first = monotonic()
        second = monotonic()
        assert second >= first

    def test_stopwatch_measures_and_restarts(self):
        watch = Stopwatch()
        first = watch.elapsed_s
        assert first >= 0.0
        watch.restart()
        assert watch.elapsed_s <= first + 1.0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_labelled_series_are_independent(self, registry):
        counter = registry.counter("ops_total", "Ops.", labels=("op",))
        counter.inc(op="contain")
        counter.inc(op="contain")
        counter.inc(op="chase")
        assert counter.value(op="contain") == 2.0
        assert counter.value(op="chase") == 1.0

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total", "C.")
        with pytest.raises(MetricError):
            counter.inc(-1.0)

    def test_wrong_label_set_rejected(self, registry):
        counter = registry.counter("l_total", "L.", labels=("op",))
        with pytest.raises(MetricError):
            counter.inc()  # missing the label
        with pytest.raises(MetricError):
            counter.inc(op="x", extra="y")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("in_flight", "In flight.")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value() == 4.0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self, registry):
        histogram = registry.histogram("latency_seconds", "Latency.",
                                       buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)
        text = registry.render_prometheus()
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_count 3" in text

    def test_sum_and_count_in_snapshot(self, registry):
        histogram = registry.histogram("h", "H.", buckets=(1.0,))
        histogram.observe(0.25)
        histogram.observe(0.75)
        snapshot = registry.snapshot()["h"]
        series = snapshot["series"][0]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(1.0)


class TestRegistry:
    def test_reregistration_returns_the_same_instrument(self, registry):
        first = registry.counter("x_total", "X.", labels=("a",))
        second = registry.counter("x_total", "X.", labels=("a",))
        assert first is second

    def test_kind_or_label_mismatch_rejected(self, registry):
        registry.counter("y_total", "Y.")
        with pytest.raises(MetricError):
            registry.gauge("y_total", "Y.")
        with pytest.raises(MetricError):
            registry.counter("y_total", "Y.", labels=("op",))

    def test_prometheus_exposition_has_help_and_type(self, registry):
        registry.counter("z_total", "The Z counter.").inc()
        text = registry.render_prometheus()
        assert "# HELP z_total The Z counter." in text
        assert "# TYPE z_total counter" in text
        assert "z_total 1" in text

    def test_reset_clears_series_but_keeps_instruments(self, registry):
        counter = registry.counter("r_total", "R.")
        counter.inc()
        registry.reset()
        assert counter.value() == 0.0
        assert "r_total" in registry.names()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_maybe_span_is_null_outside_a_trace(self):
        assert current_span() is None
        with maybe_span("orphan") as span:
            assert span is None
        assert current_span() is None

    def test_trace_collects_nested_children(self):
        tracer = Tracer()
        with tracer.start_trace("root") as root:
            with maybe_span("child", key="value") as child:
                assert current_span() is child
                with maybe_span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
        spans = tracer.store.get(root.trace_id)
        assert [span["name"] for span in spans] == ["root", "child", "grandchild"]
        assert spans[1]["tags"] == {"key": "value"}
        assert all(span["duration_s"] is not None for span in spans)
        assert len({span["trace_id"] for span in spans}) == 1

    def test_adopted_trace_id_and_parent(self):
        tracer = Tracer()
        trace_id, parent_id = new_trace_id(), new_span_id()
        with tracer.start_trace("adopted", trace_id=trace_id,
                                parent_id=parent_id) as root:
            assert root.trace_id == trace_id
            assert root.parent_id == parent_id

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_spans_per_trace=3)
        # maybe_span consults the process tracer for the cap; patch it in.
        from repro.obs import tracing as tracing_module
        saved = tracing_module._TRACER
        tracing_module._TRACER = tracer
        try:
            with tracer.start_trace("root") as root:
                for index in range(5):
                    with maybe_span(f"child-{index}"):
                        pass
        finally:
            tracing_module._TRACER = saved
        spans = tracer.store.get(root.trace_id)
        assert len(spans) == 3  # root + 2 children
        assert root.tags["spans_dropped"] == 3

    def test_span_documents_keep_their_shape(self):
        tracer = Tracer()
        adopted_parent = new_span_id()
        with tracer.start_trace("root", parent_id=adopted_parent,
                                op="contain") as root:
            with maybe_span("child", key="value") as child:
                with maybe_span("grandchild"):
                    pass
            with maybe_span("sibling"):
                pass
        # Ids are minted when first read, then stay put.
        assert child._span_id is None
        child_id = child.span_id
        assert child.span_id == child_id
        spans = tracer.store.get(root.trace_id)
        assert [span["name"] for span in spans] == [
            "root", "child", "grandchild", "sibling"]
        assert all(set(span) == {"trace_id", "span_id", "parent_id", "name",
                                 "start_s", "duration_s", "tags"}
                   for span in spans)
        assert re.fullmatch(r"[0-9a-f]{32}", root.trace_id)
        assert all(span["trace_id"] == root.trace_id for span in spans)
        ids = [span["span_id"] for span in spans]
        assert all(re.fullmatch(r"[0-9a-f]{16}", span_id) for span_id in ids)
        assert len(set(ids)) == 4 and ids[1] == child_id
        assert [span["parent_id"] for span in spans] == [
            adopted_parent, ids[0], ids[1], ids[0]]
        starts = [span["start_s"] for span in spans]
        assert starts == sorted(starts)
        assert abs(starts[0] - time.time()) < 60
        assert spans[0]["tags"] == {"op": "contain"}
        assert spans[1]["tags"] == {"key": "value"}

    def test_a_finished_trace_keeps_no_token_and_no_span_list(self):
        tracer = Tracer()
        with tracer.start_trace("root") as root:
            with maybe_span("child") as child:
                with maybe_span("grandchild") as grandchild:
                    pass
            with maybe_span("sibling") as sibling:
                pass
        spans = [root, child, grandchild, sibling]
        assert all(span._token is None for span in spans)
        assert root._sink is None
        # The store still holds the whole trace, in order.
        assert [span["name"] for span in tracer.store.get(root.trace_id)] == [
            "root", "child", "grandchild", "sibling"]

    def test_a_child_opened_after_its_root_finished_does_not_raise(self):
        """An asyncio task spawned inside a trace copies the context, so
        it can open a span under a root that has since finished."""
        tracer = Tracer()
        with tracer.start_trace("root") as root:
            with maybe_span("child"):
                pass
            context = contextvars.copy_context()

        def late():
            with maybe_span("late") as span:
                assert span is not None and span.trace_id == root.trace_id
            return span

        span = context.run(late)
        assert span.duration_s is not None and span._token is None
        assert [stored["name"] for stored in tracer.store.get(root.trace_id)] == [
            "root", "child"]

    def test_racing_first_reads_agree_on_a_span_id(self):
        tracer = Tracer()
        workers = 8
        saved_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with tracer.start_trace("root"):
                    with maybe_span("child") as child:
                        pass
                start = threading.Barrier(workers)
                seen = []

                def read():
                    start.wait(timeout=10)
                    seen.append((child.span_id, child.parent_id))

                threads = [threading.Thread(target=read, daemon=True)
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [(child.span_id, child.parent_id)] * workers
        finally:
            sys.setswitchinterval(saved_interval)

    def test_store_folds_queued_traces_on_every_read(self):
        store = TraceStore(max_traces=3)
        for index in range(7):
            store.record(f"t{index}", [{"span_id": str(index)}])
            assert len(store._pending) < 3
        assert len(store) == 3
        assert [entry["trace_id"] for entry in store.recent()] == [
            "t6", "t5", "t4"]
        store.record("t4", [{"span_id": "again"}])
        assert [span["span_id"] for span in store.get("t4")] == ["4", "again"]
        store.record("t7", [{"span_id": "7"}])
        store.clear()
        assert len(store) == 0 and store.get("t7") is None

    def test_store_merges_and_evicts(self):
        store = TraceStore(max_traces=2)
        store.record("t1", [{"span_id": "a", "name": "x"}])
        store.record("t1", [{"span_id": "a", "name": "x"},
                            {"span_id": "b", "name": "y"}])
        assert len(store.get("t1")) == 2  # deduplicated by span_id
        store.record("t2", [{"span_id": "c"}])
        store.record("t3", [{"span_id": "d"}])
        assert store.get("t1") is None  # oldest evicted
        assert len(store) == 2

    def test_recent_is_newest_first(self):
        store = TraceStore()
        store.record("old", [{"span_id": "a", "name": "first",
                              "duration_s": 1.0, "parent_id": None}])
        store.record("new", [{"span_id": "b", "name": "second",
                              "duration_s": 2.0, "parent_id": None}])
        recents = store.recent()
        assert [entry["trace_id"] for entry in recents] == ["new", "old"]
        assert recents[0]["root"] == "second"

    def test_absorb_skips_non_dicts(self):
        tracer = Tracer()
        tracer.absorb("t", [{"span_id": "a"}, "junk", 7])
        assert len(tracer.store.get("t")) == 1


class TestSlowOpLog:
    def test_disabled_by_default(self):
        tracer = Tracer()
        with tracer.start_trace("anything"):
            pass
        assert tracer.slow_log.entries() == []

    def test_threshold_captures_full_tree(self):
        tracer = Tracer(slow_log=SlowOpLog(threshold_s=0.0))
        with tracer.start_trace("slow") as root:
            with maybe_span("phase"):
                pass
        entries = tracer.slow_log.entries()
        assert len(entries) == 1
        assert entries[0]["trace_id"] == root.trace_id
        assert [span["name"] for span in entries[0]["spans"]] == ["slow", "phase"]

    def test_fast_ops_not_captured(self):
        tracer = Tracer(slow_log=SlowOpLog(threshold_s=3600.0))
        with tracer.start_trace("fast"):
            pass
        assert tracer.slow_log.entries() == []

    def test_bounded_and_newest_first(self):
        log = SlowOpLog(threshold_s=0.0, max_entries=2)
        tracer = Tracer(slow_log=log)
        for name in ("a", "b", "c"):
            with tracer.start_trace(name):
                pass
        names = [entry["name"] for entry in log.entries()]
        assert names == ["c", "b"]


# ---------------------------------------------------------------------------
# Probe hooks
# ---------------------------------------------------------------------------


class TestProbeLifecycle:
    def test_install_and_uninstall(self):
        saved = probe_module.uninstall()
        try:
            assert probe_module.active() is None
            probe = Probe()
            probe_module.install(probe)
            assert probe_module.active() is probe
            assert probe_module.uninstall() is probe
            assert probe_module.active() is None
        finally:
            if saved is not None:
                probe_module.install(saved)

    def test_ensure_default_does_not_displace_custom(self):
        saved = probe_module.uninstall()
        try:
            custom = Probe()
            probe_module.install(custom)
            obs.ensure_default_probe()
            assert probe_module.active() is custom
        finally:
            probe_module.uninstall()
            if saved is not None:
                probe_module.install(saved)


class TestMetricsProbe:
    def test_chase_metrics_from_a_real_run(self, fresh_probe):
        from repro.chase.columnar import ColumnarChaseEngine

        _, sigma, query, _ = parsed_inputs()
        statistics = ColumnarChaseEngine(query, sigma).run().statistics
        registry = fresh_probe.registry
        assert registry.get("repro_chase_runs_total").value(
            engine="columnar", outcome="saturated") == 1.0
        work = registry.get("repro_chase_work_total")
        assert work.value(kind="triggers_examined") > 0
        # Every counter but the level maximum is declared, and each kind
        # moved by exactly this run's count.
        assert set(statistics.COUNTERS) == {
            field.name for field in dataclasses.fields(statistics)} - {"max_level_reached"}
        assert [work.value(kind=kind) for kind in statistics.COUNTERS] == list(
            statistics.counts())

    def test_request_metrics_from_the_solver(self, fresh_probe):
        from repro.api.requests import ContainmentRequest

        _, sigma, query, query_prime = parsed_inputs()
        solver = Solver()
        solver.solve(ContainmentRequest(query, query_prime, sigma))
        solver.solve(ContainmentRequest(query, query_prime, sigma))
        registry = fresh_probe.registry
        assert registry.get("repro_requests_total").value(
            op="contain", cache_hit="false") == 1.0
        assert registry.get("repro_requests_total").value(
            op="contain", cache_hit="true") == 1.0

    def test_homomorphism_searches_counted(self, fresh_probe):
        from repro.homomorphism.problem import HomomorphismProblem, TargetIndex
        from repro.homomorphism.search import find_homomorphism
        from repro.queries.conjunct import Conjunct
        from repro.terms.term import DistinguishedVariable

        x = DistinguishedVariable("x")
        problem = HomomorphismProblem([Conjunct("R", [x])],
                                      TargetIndex({"R": [(1,)]}))
        assert find_homomorphism(problem) is not None
        counter = fresh_probe.registry.get("repro_homomorphism_searches_total")
        assert counter.value(found="true") >= 1.0

    def test_rewrite_reports_candidates(self, fresh_probe):
        from repro.parser.view_parser import parse_views

        schema, sigma, _, query_prime = parsed_inputs()
        catalog = parse_views("V(e, d) :- EMP(e, s, d)", schema)
        report = Solver().rewrite(query_prime, catalog, sigma)
        work = fresh_probe.registry.get("repro_rewrite_work_total")
        assert work.value(kind="candidates_tried") >= 1.0
        assert work.value(kind="images_found") == report.images_found >= 1
        assert [work.value(kind=kind) for kind in report.COUNTERS] == list(
            report.counts())

    def test_metrics_reference_lists_every_family_and_kind(self):
        from repro.chase.engine import ChaseStatistics
        from repro.views.rewriting import RewriteReport

        reference = Path(__file__).resolve().parents[1] / "examples" / "METRICS.md"
        meanings = dict(re.findall(r"^\| `(repro_\w+)` \| \w+ \| [^|]* \| (.*) \|$",
                                   reference.read_text(encoding="utf-8"), re.MULTILINE))
        families = set(MetricsProbe(MetricsRegistry()).registry.names())
        assert len(families) == 8
        # The slow-op log and the fleet coordinator publish the rest.
        assert set(meanings) == families | {
            "repro_slow_ops_total", "repro_fleet_coordinator", "repro_fleet_nodes"}
        for family, counting in (("repro_chase_work_total", ChaseStatistics),
                                 ("repro_rewrite_work_total", RewriteReport)):
            assert re.findall(r"`([a-z_]+)`", meanings[family]) == list(counting.COUNTERS)


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_start_sample_stop(self):
        profiler = SamplingProfiler(interval_s=0.001)
        assert profiler.start()
        assert not profiler.start()  # already running
        deadline = time.time() + 5.0
        while profiler.top()["samples"] == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert profiler.stop()
        assert not profiler.stop()  # already stopped
        report = profiler.top(limit=5)
        assert not report["running"]
        assert report["samples"] > 0
        assert len(report["sites"]) <= 5
        for site in report["sites"]:
            assert site["samples"] > 0
            assert 0.0 < site["share"] <= 1.0

    def test_reset_clears_counts(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        time.sleep(0.05)
        profiler.stop()
        profiler.reset()
        assert profiler.top()["samples"] == 0


# ---------------------------------------------------------------------------
# The obs protocol tier (in-process)
# ---------------------------------------------------------------------------


class TestObsProtocol:
    def test_obs_ops_validate(self):
        for op in OBS_OPERATIONS:
            assert validate_record({"op": op})["op"] == op

    def test_unknown_op_names_the_obs_tier(self):
        with pytest.raises(ProtocolError) as error:
            validate_record({"op": "obs.nonsense"})
        assert "obs.metrics" in str(error.value)

    def test_trace_context_validation(self):
        assert validate_record(
            {"op": "ping", "trace_context": {"id": "abc"}})
        for bad in ("abc", {"id": 7}, {"id": "x", "parent": 9}, []):
            with pytest.raises(ProtocolError):
                validate_record({"op": "ping", "trace_context": bad})

    def test_metrics_record_formats(self):
        json_result = handle_obs_record({"op": "obs.metrics"})["result"]
        assert json_result["format"] == "json"
        assert isinstance(json_result["metrics"], dict)
        prom = handle_obs_record(
            {"op": "obs.metrics", "format": "prometheus"})["result"]
        assert prom["format"] == "prometheus"
        assert isinstance(prom["text"], str)
        bad = handle_obs_record({"op": "obs.metrics", "format": "xml"})
        assert bad["error"]["kind"] == "protocol"

    def test_trace_lookup_and_listing(self):
        tracer = get_tracer()
        with tracer.start_trace("protocol-test") as root:
            pass
        found = handle_obs_record(
            {"op": "obs.trace", "trace_id": root.trace_id})["result"]
        assert found["found"]
        assert found["spans"][0]["name"] == "protocol-test"
        missing = handle_obs_record(
            {"op": "obs.trace", "trace_id": "no-such"})["result"]
        assert not missing["found"]
        recents = handle_obs_record({"op": "obs.trace"})["result"]
        assert any(entry["trace_id"] == root.trace_id
                   for entry in recents["traces"])

    def test_health_shape(self):
        result = handle_obs_record({"op": "obs.health"})["result"]
        assert result["pid"] > 0
        assert "tracer" in result and "profiler" in result

    def test_profile_lifecycle_over_protocol(self):
        try:
            started = handle_obs_record(
                {"op": "obs.profile", "action": "start",
                 "interval_s": 0.001})["result"]
            assert started["running"]
            status = handle_obs_record({"op": "obs.profile"})["result"]
            assert status["running"]
        finally:
            stopped = handle_obs_record(
                {"op": "obs.profile", "action": "stop"})["result"]
            assert not stopped["running"]
        top = handle_obs_record(
            {"op": "obs.profile", "action": "top", "limit": 3})["result"]
        assert len(top["sites"]) <= 3
        bad = handle_obs_record({"op": "obs.profile", "action": "launch"})
        assert bad["error"]["kind"] == "protocol"

    def test_worker_attaches_spans_when_asked_to_collect(self):
        solver = Solver()
        record = {"id": "t1", "query": QUERY, "query_prime": QUERY_PRIME,
                  "trace_context": {"id": new_trace_id(), "collect": True}}
        envelope = handle_record(record, solver, DEFAULTS)
        assert envelope["ok"]
        assert envelope["trace_id"] == record["trace_context"]["id"]
        names = [span["name"] for span in envelope["spans"]]
        assert "service.contain" in names
        assert "chase.run" in names
        assert "parse" in names
        # The envelope (spans included) must survive wire serialization.
        json.dumps(envelope)

    def test_worker_omits_spans_without_collect(self):
        solver = Solver()
        record = {"id": "t2", "query": QUERY, "query_prime": QUERY_PRIME,
                  "trace_context": {"id": new_trace_id()}}
        envelope = handle_record(record, solver, DEFAULTS)
        assert envelope["ok"]
        assert "spans" not in envelope
        assert envelope["trace_id"] == record["trace_context"]["id"]

    def test_error_envelope_still_carries_the_trace_id(self):
        solver = Solver()
        record = {"id": "t3", "op": "contain", "query": QUERY,
                  "trace_context": {"id": new_trace_id(), "collect": True}}
        envelope = handle_record(record, solver, DEFAULTS)  # missing query_prime
        assert not envelope["ok"]
        assert envelope["trace_id"] == record["trace_context"]["id"]


# ---------------------------------------------------------------------------
# End to end through a running service
# ---------------------------------------------------------------------------


class TestServiceObservability:
    def test_trace_round_trip_and_metrics_scrape(self):
        pool = ShardedSolverPool(shard_count=2, defaults=DEFAULTS)
        service = SolverService(pool, slow_op_threshold=1e-9)
        try:
            with service.run_in_thread() as thread:
                _, (host, port) = thread.address
                with ServiceClient(host=host, port=port) as client:
                    envelope = client.contain(QUERY, QUERY_PRIME)
                    assert envelope["ok"]
                    # The client minted the id; the server echoes it.
                    assert envelope["trace_id"] == client.last_trace_id

                    fetched = client.obs_trace(client.last_trace_id)
                    assert fetched["found"]
                    names = {span["name"] for span in fetched["spans"]}
                    assert {"service.contain", "parse",
                            "chase.run"} <= names

                    metrics = client.obs_metrics(format="prometheus")
                    text = metrics["text"]
                    assert "repro_requests_total" in text
                    assert "repro_chase_runs_total" in text
                    assert "repro_request_seconds" in text

                    slow = client.obs_trace(slow=True)
                    assert any(entry["trace_id"] == client.last_trace_id
                               for entry in slow["slow_ops"])

                    health = client.obs_health()
                    assert health["probe"] == "MetricsProbe"
        finally:
            pool.close()

    def test_untraced_client_still_gets_a_server_minted_trace(self):
        pool = ShardedSolverPool(shard_count=1, defaults=DEFAULTS)
        service = SolverService(pool)
        try:
            with service.run_in_thread() as thread:
                _, (host, port) = thread.address
                with ServiceClient(host=host, port=port,
                                   trace=False) as client:
                    envelope = client.contain(QUERY, QUERY_PRIME)
                    assert envelope["ok"]
                    assert client.last_trace_id is None
                    assert isinstance(envelope.get("trace_id"), str)
                    fetched = client.obs_trace(envelope["trace_id"])
                    assert fetched["found"]
        finally:
            pool.close()

    def test_invalid_utf8_line_keeps_its_id(self):
        pool = ShardedSolverPool(shard_count=1, defaults=DEFAULTS)
        service = SolverService(pool)
        try:
            with service.run_in_thread() as thread:
                _, (host, port) = thread.address
                with socket.create_connection((host, port), timeout=10) as raw:
                    stream = raw.makefile("rwb")
                    stream.write(b'{"id": "bad-bytes", "deps": "\xff\xfe"}\n')
                    stream.flush()
                    envelope = json.loads(stream.readline())
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"
                assert "UTF-8" in envelope["error"]["message"]
                # The satellite fix: the id survives the bad bytes.
                assert envelope["id"] == "bad-bytes"
        finally:
            pool.close()

    def test_obs_profile_not_idempotent_for_retry(self):
        from repro.service.client import IDEMPOTENT_OPS

        assert "obs.metrics" in IDEMPOTENT_OPS
        assert "obs.trace" in IDEMPOTENT_OPS
        assert "obs.health" in IDEMPOTENT_OPS
        assert "obs.profile" not in IDEMPOTENT_OPS

    def test_obs_operations_disjoint_from_data_plane(self):
        assert not set(OBS_OPERATIONS) & set(OPERATIONS)


# ---------------------------------------------------------------------------
# Health document
# ---------------------------------------------------------------------------


class TestHealth:
    def test_health_document_shape(self):
        document = obs.health()
        assert document["uptime_s"] >= 0.0
        assert document["tracer"]["max_spans_per_trace"] > 0
        assert document["metrics_families"] >= 0
        json.dumps(document)  # JSON-ready by construction
