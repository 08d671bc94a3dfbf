"""The benchmark's workloads: request streams generated from a seed.

Every workload yields :class:`Request` objects whose ``record`` is the
wire record the program receives; nothing else about the workload
crosses to the server.  Each of the load generator's connections
replays its own deterministic stream (:meth:`Workload.stream`); on
``served_warm`` and ``fleet_catalog`` a fixed share of every stream is
writes (``catalog.put``).

* ``served_warm`` — the :class:`~repro.workloads.TrafficGenerator` Zipf
  mix over 8 tenants; a warm-up pass in set-up answers every distinct
  record once, so every timed read is a cache hit.  Writes re-register a
  tenant's catalog (same views, same fingerprint).
* ``served_cold`` — every request distinct: containments under two
  binary-tree IND tenants (Σ repeats, queries do not) and pattern
  containments (a triangle against a random graph, no Σ).  No writes.
* ``fleet_catalog`` — distinct rewrite-by-fingerprint requests against
  four 300-view LAV catalogs behind a fleet coordinator, interleaved
  with ``catalog.put`` of new catalog versions (one view added or
  removed) that later rewrites reference.

``tiny=True`` shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from oracles import LibraryReference, three_colourable

#: Streams per seed are keyed ``seed * CONNECTIONS_MAX + connection``.
CONNECTIONS_MAX = 64


@dataclass
class Request:
    """One wire record plus what its oracle needs."""

    record: Dict[str, Any]
    kind: str  # contain | chase | rewrite | put
    #: The expected answer when known at generation time.
    expect: Any = None
    #: Oracle context: a pattern graph, or a catalog version's views text.
    context: Any = None
    #: The fleet tenant whose catalog a write registers.
    tenant: Any = None

    @property
    def write(self) -> bool:
        return self.kind == "put"


def answer_of(kind: str, result: Dict[str, Any]) -> Any:
    """The part of a successful envelope's result its oracle checks."""
    if kind == "contain":
        return bool(result["holds"]) if result.get("certain") else "unknown"
    if kind == "chase":
        return len(result["conjuncts"])
    if kind == "rewrite":
        rewritings = result.get("rewritings") or []
        return tuple(rewritings[0]["cost"]) if rewritings else None
    return result["fingerprint"]


def _put(views_text: str, schema_text: str, name: str,
         tenant: Any = None) -> Request:
    return Request({"op": "catalog.put", "views": views_text,
                    "schema": schema_text, "name": name},
                   "put", context=(views_text, schema_text), tenant=tenant)


class Workload:
    """A workload's generator, oracle and shape."""

    name = ""
    #: ``service`` (one SolverService) or ``fleet`` (coordinator + nodes).
    topology = "service"
    #: The tail percentile reported as ``latency_tail_ms``: fixed per
    #: workload so it is the same percentile on every run, and low
    #: enough to leave well over 10 reads beyond it on a slow run.
    tail_percentile = 90.0
    #: One request in every ``write_every`` of a stream is a write.
    write_every = 20

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def setup_requests(self) -> List[Request]:
        """Records replayed after launch and before the timed phase."""
        return []

    def stream(self, connection: int) -> Iterator[Request]:
        raise NotImplementedError

    def observe(self, request: Request, result: Dict[str, Any]) -> None:
        """Learn from one successful answer (catalog fingerprints)."""

    def expected(self, request: Request, reference: LibraryReference) -> Any:
        """The oracle's answer for ``request``."""
        if request.expect is not None:
            return request.expect
        if request.kind == "put":
            return reference.catalog_fingerprint(*request.context)
        if request.kind == "chase":
            return reference.chase_size(request.record)
        if request.kind == "rewrite":
            return reference.best_rewrite_cost(request.record, request.context)
        raise ValueError(f"no oracle for {request.kind!r}")


# ---------------------------------------------------------------------------
# served_warm
# ---------------------------------------------------------------------------


class ServedWarm(Workload):
    name = "served_warm"
    tail_percentile = 99.0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        from repro.workloads import TrafficGenerator
        # The tenant universe is the deployment and is the same for every
        # seed (some generator seeds yield tenants whose rewrites take
        # seconds and hundreds of MB); the seed drives the traffic.
        self.traffic = TrafficGenerator(tenant_count=3 if tiny else 8, seed=1)
        self._tenants = {tenant.name: tenant for tenant in self.traffic.tenants}

    def _put(self, tenant) -> Request:
        return _put(tenant.views_text, tenant.schema_text, tenant.name)

    def setup_requests(self) -> List[Request]:
        """Every distinct record once: the catalogs, then each tenant's
        containments, chases and rewrites."""
        requests = [self._put(tenant) for tenant in self.traffic.tenants]
        for tenant in self.traffic.tenants:
            base = tenant.record_base()
            for query, query_prime in tenant.contain_pairs:
                requests.append(Request(
                    {"op": "contain", "query": query,
                     "query_prime": query_prime, **base}, "contain", True))
            for query in tenant.chase_queries:
                requests.append(Request(
                    {"op": "chase", "query": query, "max_level": 3, **base},
                    "chase"))
            for query in tenant.rewrite_queries:
                requests.append(Request(
                    {"op": "rewrite", "query": query,
                     "views": tenant.views_text, **base},
                    "rewrite", context=tenant.views_text))
        return requests

    def stream(self, connection: int) -> Iterator[Request]:
        records = self.traffic.iter_requests(
            10 ** 9, stream_seed=self.seed * CONNECTIONS_MAX + connection)
        for serial, record in enumerate(records):
            tenant = self._tenants[record["id"].split("/", 1)[0]]
            if serial % self.write_every == self.write_every - 1:
                yield self._put(tenant)
                continue
            op = record["op"]
            yield Request(record, op, True if op == "contain" else None,
                          context=record.get("views"))


# ---------------------------------------------------------------------------
# served_cold
# ---------------------------------------------------------------------------


@dataclass
class TreeTenant:
    """A binary tree of INDs: ``P{i}[b{i}] ⊆ P{c}[a{c}]`` for each child c."""

    prefix: str
    depth: int
    schema_text: str = field(init=False)
    deps_text: str = field(init=False)

    def __post_init__(self) -> None:
        count = 2 ** (self.depth + 1) - 1
        self.schema_text = "\n".join(
            f"{self.prefix}{i}(a{i}, b{i})" for i in range(count))
        self.deps_text = "\n".join(
            f"{self.prefix}{i}[b{i}] <= {self.prefix}{child}[a{child}]"
            for i in range(self.internal_count)
            for child in (2 * i + 1, 2 * i + 2))

    @property
    def internal_count(self) -> int:
        return 2 ** self.depth - 1

    def is_internal(self, node: int) -> bool:
        return node < self.internal_count

    def record_base(self) -> Dict[str, str]:
        return {"schema": self.schema_text, "deps": self.deps_text}


#: Query shapes per tree node: head variables × first body atoms.
_TREE_HEADS = ("x", "y", "x, y")
_TREE_BODIES = 3


class ServedCold(Workload):
    name = "served_cold"
    tail_percentile = 95.0
    pattern_share = 0.2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        depths = (4, 3) if tiny else (9, 8)  # 1022 and 510 INDs at full size
        self.trees = [TreeTenant(prefix, depth)
                      for prefix, depth in zip(("A", "B"), depths)]
        # 16 vertices at average degree 4.5, near the 3-colouring
        # threshold: both verdicts occur, and search effort varies widely.
        self.pattern_vertices = 8 if tiny else 16
        self.pattern_edges = 14 if tiny else 36
        # Every (tenant, internal node, shape) is one distinct query Q;
        # a seeded shuffle decides the order, and connection c takes
        # every other position starting at c, so no Q repeats in a run.
        space = [(tree_index, node, head, body)
                 for tree_index, tree in enumerate(self.trees)
                 for node in range(tree.internal_count)
                 for head in range(len(_TREE_HEADS))
                 for body in range(_TREE_BODIES)]
        random.Random(f"{seed}:cold-space").shuffle(space)
        self._space = space

    def setup_requests(self) -> List[Request]:
        """Prime each tenant's parsed schema and Σ with one request whose
        query the timed phase never uses (a leaf, and a 4-cycle)."""
        requests = []
        for tree in self.trees:
            leaf = tree.internal_count
            query = f"Q(x) :- {tree.prefix}{leaf}(x, y)"
            requests.append(Request({"op": "contain", "query": query,
                                     "query_prime": query,
                                     **tree.record_base()}, "contain", True))
        cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
        requests.append(self._pattern(cycle, 4))
        return requests

    def _tree_request(self, rng: random.Random, tree_index: int, node: int,
                      head: int, body: int) -> Request:
        tree = self.trees[tree_index]
        p = tree.prefix
        atoms = [f"{p}{node}(x, y)"]
        below = "y"
        if body:
            child = 2 * node + body
            atoms.append(f"{p}{child}(y, z)")
            below, node = "z", child
        # Q' adds a downward path under the deepest atom of Q: the chase
        # of Q holds the whole subtree, so Q ⊆ Q' by construction.
        path = list(atoms)
        for step in range(1, 4):
            if not tree.is_internal(node) or (step > 1 and rng.random() < 0.4):
                break
            node = 2 * node + rng.choice((1, 2))
            path.append(f"{p}{node}({below}, p{step})")
            below = f"p{step}"
        heads = _TREE_HEADS[head]
        return Request({"op": "contain",
                        "query": f"Q({heads}) :- {', '.join(atoms)}",
                        "query_prime": f"P({heads}) :- {', '.join(path)}",
                        **tree.record_base()}, "contain", True)

    def _pattern(self, edges: List[Tuple[int, int]], vertices: int) -> Request:
        triangle = ("K(a) :- E(a, b), E(b, a), E(b, c), E(c, b), "
                    "E(c, a), E(a, c)")
        atoms = ", ".join(f"E(v{u}, v{w}), E(v{w}, v{u})" for u, w in edges)
        graph = f"G(v{edges[0][0]}) :- {atoms}"
        # K ⊆ G iff G maps onto the triangle iff G is 3-colourable.
        return Request({"op": "contain", "query": triangle,
                        "query_prime": graph, "schema": "E(src, dst)",
                        "deps": ""}, "contain",
                       context=(vertices, tuple(edges)))

    def _random_pattern(self, rng: random.Random) -> Request:
        pairs = list(itertools.combinations(range(self.pattern_vertices), 2))
        return self._pattern(sorted(rng.sample(pairs, self.pattern_edges)),
                             self.pattern_vertices)

    def stream(self, connection: int) -> Iterator[Request]:
        rng = random.Random(f"{self.seed}:cold:{connection}")
        # Past the end of its share of the space a stream wraps around;
        # a run that long repeats queries and is no longer all-cold.
        shapes = itertools.cycle(self._space[connection::2])
        while True:
            if rng.random() < self.pattern_share:
                yield self._random_pattern(rng)
            else:
                yield self._tree_request(rng, *next(shapes))

    def expected(self, request: Request, reference: LibraryReference) -> Any:
        if request.kind == "contain" and request.expect is None:
            return three_colourable(*request.context)
        return super().expected(request, reference)


# ---------------------------------------------------------------------------
# fleet_catalog
# ---------------------------------------------------------------------------


@dataclass
class FleetTenant:
    index: int
    schema: Any
    schema_text: str
    deps_text: str
    #: The latest registered version's views, one per line.
    views: List[str]
    #: Views the version edits never remove (the Σ-derived key joins).
    pinned: int

    @property
    def text(self) -> str:
        return "\n".join(self.views)


class FleetCatalog(Workload):
    name = "fleet_catalog"
    topology = "fleet"
    tenant_count = 4
    # About 45 writes in a 35 s run at one in 20; their median needs more.
    write_every = 10

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        from repro.workloads import (
            DependencyGenerator,
            SchemaGenerator,
            ViewCatalogGenerator,
        )
        relations, catalog_size = (6, 20) if tiny else (22, 300)
        # The tenants (schemas, Σ, catalogs) are the deployment and stay
        # the same for every seed; the seed drives the traffic.  From this
        # base, every tenant's Σ has a termination certificate and the
        # four tenants route two to each node.
        self.tenants: List[FleetTenant] = []
        for index in range(self.tenant_count):
            tenant_seed = 500 + index
            schema = SchemaGenerator(seed=tenant_seed).uniform(
                relations, 3, prefix=f"F{index}R")
            sigma = DependencyGenerator(schema, seed=tenant_seed).key_based(4)
            generator = ViewCatalogGenerator(schema, seed=tenant_seed)
            catalog = generator.lav_catalog(catalog_size, sigma)
            pinned = len(generator.key_join_collapses(sigma, prefix="VLK"))
            self.tenants.append(FleetTenant(
                index, schema,
                "\n".join(f"{relation.name}({', '.join(relation.attribute_names)})"
                          for relation in schema),
                "\n".join(str(dependency) for dependency in sigma),
                [str(view) for view in catalog], min(pinned, catalog_size)))
        #: Latest registered fingerprint per tenant, learnt from answers.
        self._latest: Dict[int, Optional[str]] = {
            tenant.index: None for tenant in self.tenants}

    def _put(self, tenant: FleetTenant, views_text: str) -> Request:
        return _put(views_text, tenant.schema_text, f"tenant-{tenant.index}",
                    tenant.index)

    def setup_requests(self) -> List[Request]:
        """The initial registration of every tenant's catalog."""
        return [self._put(tenant, tenant.text) for tenant in self.tenants]

    def observe(self, request: Request, result: Dict[str, Any]) -> None:
        """A registered version becomes the tenant's latest: later
        rewrites reference its fingerprint and are checked against its
        views.  A failed put changes neither."""
        if request.write:
            views_text = request.context[0]
            self.tenants[request.tenant].views = views_text.split("\n")
            self._latest[request.tenant] = result["fingerprint"]

    def stream(self, connection: int) -> Iterator[Request]:
        # Each connection owns half the tenants, so a rewrite always
        # follows the put of the version it references on its own
        # connection.
        from repro.workloads import QueryGenerator
        owned = [tenant for tenant in self.tenants
                 if tenant.index % 2 == connection]
        rng = random.Random(f"{self.seed}:fleet:{connection}")
        chains = {tenant.index: QueryGenerator(tenant.schema, seed=0)
                  for tenant in owned}
        asked = set()
        for serial in itertools.count():
            if serial % self.write_every == self.write_every - 1:
                tenant = owned[serial // self.write_every % len(owned)]
                yield self._put(tenant, self._edit(tenant, rng,
                                                   f"VX{connection}x{serial}"))
                continue
            tenant = rng.choice(owned)
            while True:
                length = rng.choice((3, 4))
                relations = rng.sample(tenant.schema.relation_names, length)
                query = str(chains[tenant.index].chain(
                    length, relation_names=relations, name="Q"))
                if (self._latest[tenant.index], query) not in asked:
                    break
            asked.add((self._latest[tenant.index], query))
            yield Request({"op": "rewrite", "query": query,
                           "catalog_fp": self._latest[tenant.index],
                           "strategy": "bucketed",
                           "schema": tenant.schema_text,
                           "deps": tenant.deps_text},
                          "rewrite", context=tenant.text)

    @staticmethod
    def _edit(tenant: FleetTenant, rng: random.Random, name: str) -> str:
        """The next catalog version's views text: the latest version with
        one view removed or one added."""
        views = list(tenant.views)
        if rng.random() < 0.5 and len(views) > tenant.pinned + 1:
            del views[rng.randrange(tenant.pinned, len(views))]
        else:
            relation = tenant.schema.relation(
                rng.choice(tenant.schema.relation_names))
            kept = rng.randrange(1, relation.arity + 1)
            terms = [f"h{i}" if i < kept else f"n{i}"
                     for i in range(relation.arity)]
            views.append(f"{name}({', '.join(terms[:kept])}) :- "
                         f"{relation.name}({', '.join(terms)})")
        return "\n".join(views)


WORKLOADS = {workload.name: workload
             for workload in (ServedWarm, ServedCold, FleetCatalog)}
