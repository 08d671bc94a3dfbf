"""repro.views — answering queries using materialized views.

The subsystem packages the paper's containment test into the flagship
industrial workload built on top of it: rewriting a conjunctive query to
use **materialized views** under FDs and INDs, via chase & backchase.

* :class:`View` / :class:`ViewCatalog` — named CQ views over a base
  schema and the extended schema they induce;
* :func:`expand_query` — unfold view atoms back to base atoms with
  fresh-variable hygiene;
* :func:`rewrite_with_views` — the staged chase & backchase pipeline
  (catalog index → image discovery → candidate generation →
  certification → ranking) returning a ranked :class:`RewriteReport`
  of certified rewritings;
* :mod:`repro.views.registry` — the two candidate-generation
  strategies by name (``"exhaustive"`` — the certified reference subset
  sweep; ``"bucketed"`` — MiniCon-style buckets behind a
  :class:`CatalogIndex` for thousand-view catalogs);
* :mod:`repro.views.cost` — pluggable ranking (default: fewest atoms,
  then fewest base-relation accesses).

The session-level entry point is :meth:`repro.api.Solver.rewrite`, which
adds cross-call caching keyed on (query, catalog, Σ) fingerprints and
shares one :class:`CatalogIndex` per catalog fingerprint.
"""

from repro.views.buckets import (
    BucketStatistics,
    build_buckets,
    iter_bucket_combinations,
)
from repro.views.cost import CostModel, default_cost, view_atoms_first
from repro.views.expansion import expand_query, expand_view_atom
from repro.views.index import CatalogIndex, build_catalog_index
from repro.views.registry import (
    DEFAULT_REWRITE_STRATEGY,
    REWRITE_STRATEGIES,
    resolve_rewriter_name,
    validate_rewriter_name,
)
from repro.views.rewriting import (
    BucketedRewriter,
    ExhaustiveRewriter,
    RewriteReport,
    Rewriting,
    ViewImage,
    find_view_images,
    match_level,
    rewrite_with_views,
)
from repro.views.view import View, ViewCatalog

__all__ = [
    "BucketStatistics",
    "BucketedRewriter",
    "CatalogIndex",
    "CostModel",
    "DEFAULT_REWRITE_STRATEGY",
    "ExhaustiveRewriter",
    "REWRITE_STRATEGIES",
    "RewriteReport",
    "Rewriting",
    "View",
    "ViewCatalog",
    "ViewImage",
    "build_buckets",
    "build_catalog_index",
    "default_cost",
    "expand_query",
    "expand_view_atom",
    "find_view_images",
    "iter_bucket_combinations",
    "match_level",
    "resolve_rewriter_name",
    "rewrite_with_views",
    "validate_rewriter_name",
    "view_atoms_first",
]
