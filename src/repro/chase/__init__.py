"""The chase for functional and inclusion dependencies (Section 3).

The chase converts the conjuncts of a query into a database obeying a set
Σ of dependencies, by merging symbols (the FD chase rule) and adding new
conjuncts (the IND chase rule).  With INDs present the chase may be
infinite, so the engine builds it *lazily*, bounded by a level budget, a
conjunct budget, or saturation, following the paper's deterministic
application policy:

1. while an FD is applicable, apply the lexicographically first applicable
   FD to the lexicographically first applicable pair of conjuncts;
2. then apply the lexicographically first applicable (O-chase) or required
   (R-chase) IND to the lexicographically first conjunct of minimum level.

Two variants are provided: the **O-chase** ("oblivious" — each IND is
applied once to each conjunct it matches, even redundantly) and the
**R-chase** ("required" — an IND is applied only when the conjunct it
would create is not already present).  Theorem 1 holds for both, so the
containment procedures default to the smaller R-chase; the O-chase is what
Figure 1 draws and what Theorem 2's IND-only certificate argument uses.
"""

from repro.chase.events import (
    ChaseStep,
    ChaseTrace,
    EGDApplication,
    FDApplication,
    INDApplication,
    TGDApplication,
)
from repro.chase.chase_graph import ChaseArc, ChaseGraph, ChaseNode
from repro.chase.engine import (
    ChaseConfig,
    ChaseResult,
    ChaseStatistics,
    ChaseVariant,
    build_engine,
    chase,
    o_chase,
    r_chase,
)
from repro.chase.registry import (
    available_engines,
    register_engine,
    resolve_engine_name,
    validate_engine_name,
)
from repro.chase.columnar import ColumnarChaseEngine
from repro.chase.legacy_engine import LegacyChaseEngine
from repro.chase.instance_chase import InstanceChaseResult, chase_instance
from repro.chase.termination import (
    ChaseSizeEstimate,
    TerminationReport,
    analyse_ind_termination,
    analyse_termination,
    chase_guaranteed_finite,
    dependency_position_graph,
    estimate_chase_size,
)

__all__ = [
    "ChaseArc",
    "ChaseConfig",
    "ChaseGraph",
    "ChaseNode",
    "ColumnarChaseEngine",
    "ChaseResult",
    "ChaseStatistics",
    "ChaseStep",
    "ChaseTrace",
    "ChaseVariant",
    "EGDApplication",
    "FDApplication",
    "INDApplication",
    "TGDApplication",
    "ChaseSizeEstimate",
    "InstanceChaseResult",
    "LegacyChaseEngine",
    "TerminationReport",
    "analyse_ind_termination",
    "analyse_termination",
    "available_engines",
    "build_engine",
    "chase",
    "register_engine",
    "resolve_engine_name",
    "validate_engine_name",
    "chase_guaranteed_finite",
    "dependency_position_graph",
    "estimate_chase_size",
    "chase_instance",
    "o_chase",
    "r_chase",
]
