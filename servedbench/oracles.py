"""Answer oracles that do not go through the served path.

* :func:`three_colourable` decides a pattern containment by a plain
  backtracking 3-colouring of the pattern graph: ``K ⊆ G`` for the
  triangle ``K`` holds exactly when ``G`` maps homomorphically onto a
  triangle, i.e. when ``G`` is 3-colourable.
* :class:`LibraryReference` recomputes chase sizes, best rewrite costs
  and catalog fingerprints in this process through the library API
  (:class:`repro.api.Solver`, the parsers, the fingerprints), with the
  budgets the service applies to a record.

Tree containments and the traffic generator's pairs need no oracle:
they are positive by construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def three_colourable(vertex_count: int, edges: Sequence[Edge]) -> bool:
    """True if the undirected graph has a proper 3-colouring."""
    neighbours: List[set] = [set() for _ in range(vertex_count)]
    for left, right in edges:
        if left == right:
            return False
        neighbours[left].add(right)
        neighbours[right].add(left)
    order = sorted(range(vertex_count), key=lambda v: -len(neighbours[v]))
    colour = [-1] * vertex_count

    def assign(position: int) -> bool:
        if position == len(order):
            return True
        vertex = order[position]
        used = {colour[other] for other in neighbours[vertex]}
        for candidate in range(3):
            if candidate not in used:
                colour[vertex] = candidate
                if assign(position + 1):
                    return True
        colour[vertex] = -1
        return False

    return assign(0)


class LibraryReference:
    """In-process reference answers, memoised per distinct question."""

    def __init__(self) -> None:
        from repro.api import Solver
        self._solver = Solver()
        self._schemas: Dict[str, Any] = {}
        self._sigmas: Dict[Tuple[str, str], Any] = {}
        self._views: Dict[Tuple[str, str], Any] = {}
        self._catalogs: Dict[Tuple[str, str], Any] = {}
        self._answers: Dict[Any, Any] = {}

    # -- parsing -------------------------------------------------------------

    def _schema(self, text: str):
        from repro.parser import parse_schema
        if text not in self._schemas:
            self._schemas[text] = parse_schema(text)
        return self._schemas[text]

    def _sigma(self, deps_text: Optional[str], schema_text: str):
        from repro.dependencies.dependency_set import DependencySet
        from repro.parser import parse_dependencies
        key = (deps_text or "", schema_text)
        if key not in self._sigmas:
            schema = self._schema(schema_text)
            self._sigmas[key] = (parse_dependencies(deps_text, schema)
                                 if deps_text and deps_text.strip()
                                 else DependencySet(schema=schema))
        return self._sigmas[key]

    def _catalog(self, views_text: str, schema_text: str):
        """The parsed catalog and its signature index, built once per text.

        Catalog versions share all but one view, so views are parsed once
        per line and each version is assembled from them.
        """
        from repro.parser import parse_view
        from repro.views import ViewCatalog, build_catalog_index
        key = (views_text, schema_text)
        if key not in self._catalogs:
            schema = self._schema(schema_text)
            catalog = ViewCatalog(schema=schema)
            for line in filter(None, map(str.strip, views_text.splitlines())):
                if (line, schema_text) not in self._views:
                    self._views[line, schema_text] = parse_view(line, schema)
                catalog.add(self._views[line, schema_text])
            self._catalogs[key] = (catalog, build_catalog_index(catalog))
        return self._catalogs[key]

    def _memo(self, key, compute):
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]

    # -- reference answers ---------------------------------------------------

    def catalog_fingerprint(self, views_text: str, schema_text: str) -> str:
        from repro.api.fingerprints import catalog_fingerprint
        return self._memo(
            ("fp", views_text, schema_text),
            lambda: catalog_fingerprint(self._catalog(views_text, schema_text)[0]))

    def chase_size(self, record: Dict[str, Any]) -> int:
        """Atoms in the chase a ``chase`` record asks for."""
        from repro.api import ChaseRequest, SolverConfig
        from repro.chase.engine import ChaseVariant
        from repro.parser import parse_query
        from repro.service.protocol import ServiceLimits

        def compute() -> int:
            limits = ServiceLimits()
            schema = self._schema(record["schema"])
            config = SolverConfig().derive(
                variant=ChaseVariant(record.get("variant", "R")),
                chase_max_conjuncts=limits.max_conjuncts)
            result = self._solver.solve(ChaseRequest(
                parse_query(record["query"], schema),
                self._sigma(record.get("deps"), record["schema"]),
                max_level=min(record.get("max_level") or limits.max_level,
                              limits.max_level),
                config=config)).result
            return len(result)

        return self._memo(("chase", record["query"], record["schema"],
                           record.get("deps"), record.get("max_level")),
                          compute)

    def best_rewrite_cost(self, record: Dict[str, Any],
                          views_text: str) -> Optional[Tuple[int, ...]]:
        """The best certified rewriting's cost, or ``None`` when none exists.

        Runs :func:`repro.views.rewrite_with_views` with the search
        budgets of the service's default :class:`~repro.api.SolverConfig`,
        the service's conjunct ceiling, and the catalog's prebuilt index.
        (A fleet coordinator would clamp the ceiling for a Σ without a
        termination certificate; the workloads use none.)
        """
        from repro.api import SolverConfig
        from repro.parser import parse_query
        from repro.service.protocol import ServiceLimits
        from repro.views import rewrite_with_views
        from repro.views.registry import resolve_rewriter_name

        def compute() -> Optional[Tuple[int, ...]]:
            schema = self._schema(record["schema"])
            sigma = self._sigma(record.get("deps"), record["schema"])
            config = SolverConfig()
            catalog, index = self._catalog(views_text, record["schema"])
            report = rewrite_with_views(
                parse_query(record["query"], schema), catalog, sigma,
                solver=self._solver,
                max_images=config.rewrite_max_images,
                max_combination_size=config.rewrite_max_combination_size,
                max_candidates=config.rewrite_max_candidates,
                chase_level=config.rewrite_chase_level,
                chase_max_conjuncts=config.chase_max_conjuncts,
                strategy=resolve_rewriter_name(record.get("strategy")),
                catalog_index=index,
                max_conjuncts=ServiceLimits().max_conjuncts)
            best = report.best
            return tuple(best.cost) if best is not None else None

        return self._memo(("rewrite", record["query"], views_text,
                           record["schema"], record.get("deps"),
                           record.get("strategy")), compute)
