"""Every request is freed by reference counting: no cyclic garbage.

A served request allocates candidate lists, chase state and a trace of
spans.  None of it may form a reference cycle: CPython frees cycles
only in collector passes, whose cost grows with the heap, and a server
that produces cyclic garbage on every request pays for those passes in
its throughput and tail latency.  Each test below runs requests with the
collector off and ``gc.DEBUG_SAVEALL`` on, then collects once: every
object that collection finds is cyclic garbage the request left behind.

Traced requests run under a small :class:`TraceStore` that is already
evicting, so a finished trace falling off the end of the store is part
of what is measured.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from contextlib import contextmanager
from itertools import combinations, islice

import pytest

from repro.api import Solver
from repro.homomorphism.problem import HomomorphismProblem, TargetIndex
from repro.homomorphism.search import find_homomorphism, iter_homomorphisms
from repro.obs.tracing import TraceStore, Tracer
from repro.queries.conjunct import Conjunct
from repro.service.protocol import (
    CatalogStore,
    TenantParser,
    handle_record,
    resolve_catalog_record,
)
from repro.terms.term import DistinguishedVariable, NonDistinguishedVariable
from repro.workloads import DependencyGenerator, QueryGenerator, SchemaGenerator, ViewCatalogGenerator

#: Traces the test store holds; every test first finishes more than this.
STORE_SIZE = 4


@contextmanager
def no_collector():
    """The collector off, as between the collections below."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def cyclic_garbage(run) -> Counter:
    """The cyclic objects ``run()`` leaves behind, counted by type.

    Earlier garbage is freed first.  Then, with ``gc.DEBUG_SAVEALL``,
    one collection after ``run()`` puts what it finds in ``gc.garbage``
    instead of freeing it.
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


class Server:
    """One shard's request path, traced into a small evicting store."""

    def __init__(self):
        self.solver = Solver()
        self.parser = TenantParser()
        self.catalogs = CatalogStore()
        self.tracer = Tracer(store=TraceStore(max_traces=STORE_SIZE))

    def handle(self, record):
        record = resolve_catalog_record(record, self.catalogs)
        with self.tracer.start_trace(f"service.{record['op']}",
                                     op=record["op"]):
            envelope = handle_record(record, self.solver, parser=self.parser)
        assert envelope["ok"], envelope
        return envelope["result"]


def tree_tenant(depth: int = 5):
    """A binary tree of INDs, ``A{i}[b{i}] ⊆ A{c}[a{c}]`` per child c."""
    count = 2 ** (depth + 1) - 1
    schema = "\n".join(f"A{i}(a{i}, b{i})" for i in range(count))
    deps = "\n".join(f"A{i}[b{i}] <= A{child}[a{child}]"
                     for i in range(2 ** depth - 1)
                     for child in (2 * i + 1, 2 * i + 2))
    return schema, deps


def tree_records(count: int):
    """Distinct containments Q ⊆ Q', Q' a downward path under Q's atom.

    The path is two levels deep, so ``count`` may not exceed the 15
    nodes with grandchildren."""
    schema, deps = tree_tenant()
    for node in range(count):
        path = [f"A{node}(x, y)"]
        below, child = "y", node
        for step in (1, 2):
            child = 2 * child + 1 + step % 2
            path.append(f"A{child}({below}, p{step})")
            below = f"p{step}"
        yield {"op": "contain", "query": f"Q(x) :- A{node}(x, y)",
               "query_prime": f"P(x) :- {', '.join(path)}",
               "schema": schema, "deps": deps}


def pattern_records(count: int, vertices: int = 9, edges: int = 16):
    """The triangle against random graphs: K ⊆ G iff G is 3-colourable."""
    rng = random.Random("garbage:patterns")
    triangle = "K(a) :- E(a, b), E(b, a), E(b, c), E(c, b), E(c, a), E(a, c)"
    pairs = list(combinations(range(vertices), 2))
    for _ in range(count):
        chosen = sorted(rng.sample(pairs, edges))
        atoms = ", ".join(f"E(v{u}, v{w}), E(v{w}, v{u})" for u, w in chosen)
        yield {"op": "contain", "query": triangle,
               "query_prime": f"G(v{chosen[0][0]}) :- {atoms}",
               "schema": "E(src, dst)", "deps": ""}


def rewrite_records(server: Server, count: int):
    """Bucketed rewrites by catalog fingerprint over a generated tenant."""
    schema = SchemaGenerator(seed=500).uniform(6, 3, prefix="F")
    sigma = DependencyGenerator(schema, seed=500).key_based(4)
    catalog = ViewCatalogGenerator(schema, seed=500).lav_catalog(20, sigma)
    schema_text = "\n".join(
        f"{relation.name}({', '.join(relation.attribute_names)})"
        for relation in schema)
    deps_text = "\n".join(str(dependency) for dependency in sigma)
    fingerprint = server.catalogs.put(
        "\n".join(str(view) for view in catalog), schema_text,
        server.parser)["fingerprint"]
    rng = random.Random("garbage:rewrites")
    queries = QueryGenerator(schema, seed=0)
    asked = set()
    while len(asked) < count:
        length = rng.choice((3, 4))
        query = str(queries.chain(
            length, relation_names=rng.sample(schema.relation_names, length),
            name="Q"))
        if query in asked:
            continue
        asked.add(query)
        yield {"op": "rewrite", "query": query, "catalog_fp": fingerprint,
               "strategy": "bucketed", "schema": schema_text,
               "deps": deps_text}


def colouring_problem(seed: int, vertices: int = 9, edges: int = 16):
    """A pattern into the triangle, as the containment above builds it."""
    rng = random.Random(f"garbage:colouring:{seed}")
    chosen = sorted(rng.sample(list(combinations(range(vertices), 2)), edges))
    vertex = [NonDistinguishedVariable(f"v{index}")
              for index in range(vertices)]
    atoms = []
    for u, w in chosen:
        atoms.append(Conjunct("E", [vertex[u], vertex[w]]))
        atoms.append(Conjunct("E", [vertex[w], vertex[u]]))
    a, b, c = (DistinguishedVariable(name) for name in "abc")
    triangle = TargetIndex({"E": [(a, b), (b, a), (b, c), (c, b),
                                  (c, a), (a, c)]})
    return HomomorphismProblem(atoms, triangle,
                               required={vertex[chosen[0][0]]: a})


def assert_requests_leave_no_cycles(server: Server, records, warm: int):
    """Serve ``warm`` records (filling the store past eviction and every
    lazily built memo), then each later one on its own."""
    records = iter(records)
    for record in islice(records, warm):
        server.handle(record)
    assert len(server.tracer.store) == STORE_SIZE
    results = []
    with no_collector():
        for record in records:
            found = cyclic_garbage(lambda: results.append(
                server.handle(record)))
            assert not found, (record, found.most_common(6))
    return results


class TestServedRequests:
    def test_a_traced_bucketed_rewrite_by_fingerprint(self):
        server = Server()
        results = assert_requests_leave_no_cycles(
            server, rewrite_records(server, 14), warm=STORE_SIZE + 2)
        # Certification ran: candidates were tried both ways round.
        assert sum(result["candidates_tried"] for result in results) > 0
        assert any(result["rewritings"] for result in results)

    def test_a_tree_containment(self):
        results = assert_requests_leave_no_cycles(
            Server(), tree_records(12), warm=STORE_SIZE + 2)
        assert all(result["holds"] for result in results)

    def test_a_pattern_containment(self):
        results = assert_requests_leave_no_cycles(
            Server(), pattern_records(14), warm=STORE_SIZE + 2)
        assert len({result["holds"] for result in results}) == 2


class TestSearches:
    @pytest.fixture(autouse=True)
    def _collector_off(self):
        with no_collector():
            yield

    def test_find_homomorphism(self):
        problems = [colouring_problem(seed) for seed in range(8)]
        found = []
        for problem in problems:
            garbage = cyclic_garbage(
                lambda: found.append(find_homomorphism(problem)))
            assert not garbage, garbage.most_common(6)
        assert any(found) and not all(found)

    def test_an_exhausted_enumeration(self):
        problem = colouring_problem(3, vertices=7, edges=9)
        solutions = []
        garbage = cyclic_garbage(
            lambda: solutions.extend(iter_homomorphisms(problem)))
        assert not garbage, garbage.most_common(6)
        assert len(solutions) > 1

    def test_an_abandoned_enumeration(self):
        problem = colouring_problem(3, vertices=7, edges=9)

        def abandon():
            search = iter_homomorphisms(problem)
            assert next(search) is not None
            # Dropped while suspended mid-search, never closed by hand.

        garbage = cyclic_garbage(abandon)
        assert not garbage, garbage.most_common(6)
