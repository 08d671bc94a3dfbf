"""repro — conjunctive-query containment under FDs and INDs.

A from-scratch, laptop-scale reproduction of

    D. S. Johnson and A. Klug,
    "Testing Containment of Conjunctive Queries under Functional and
    Inclusion Dependencies", PODS 1982 / JCSS 28 (1984) 167-189.

The package provides the relational model, conjunctive queries, functional
and inclusion dependencies, the O-chase and R-chase of Section 3, the
Theorem 2 bounded-chase containment procedure with verifiable
certificates, equivalence and minimization under dependencies, and the
Section 4 finite-containment tooling, plus an in-memory storage engine, a
textual parser, and workload generators used by the examples and
benchmarks.

Quickstart — build one :class:`~repro.api.Solver` per session and submit
typed requests; answers are cached across calls::

    from repro import (
        DatabaseSchema, QueryBuilder, DependencySet, InclusionDependency,
        ContainmentRequest, Solver,
    )

    schema = DatabaseSchema.from_dict(
        {"EMP": ["emp", "sal", "dept"], "DEP": ["dept", "loc"]})
    q1 = (QueryBuilder(schema, "Q1").head("e")
          .atom("EMP", "e", "s", "d").atom("DEP", "d", "l").build())
    q2 = (QueryBuilder(schema, "Q2").head("e")
          .atom("EMP", "e", "s", "d").build())
    sigma = DependencySet(
        [InclusionDependency("EMP", ["dept"], "DEP", ["dept"])], schema=schema)

    solver = Solver()
    response = solver.solve(ContainmentRequest(q2, q1, sigma))
    assert response.holds                 # needs the IND
    assert not response.cache_hit         # first time: computed
    assert solver.solve(ContainmentRequest(q2, q1, sigma)).cache_hit

The classic functional API works as before (and now shares a default
Solver's caches behind the scenes)::

    from repro import is_contained

    assert is_contained(q2, q1, sigma).holds      # needs the IND
    assert is_contained(q2, q1).holds is False    # fails without it
"""

from repro.exceptions import (
    ChaseBudgetExceeded,
    ChaseError,
    ContainmentUndecided,
    DependencyError,
    EvaluationError,
    IntegrityError,
    ParseError,
    QueryError,
    ReproError,
    SchemaError,
    ViewError,
)
from repro.relational import (
    Attribute,
    Database,
    DatabaseSchema,
    Domain,
    RelationInstance,
    RelationSchema,
)
from repro.terms import (
    Constant,
    DistinguishedVariable,
    FreshVariableFactory,
    NonDistinguishedVariable,
    Substitution,
    Variable,
)
from repro.queries import (
    Conjunct,
    ConjunctiveQuery,
    QueryBuilder,
    QueryGraph,
    canonical_database,
    core_of,
    evaluate,
    is_minimal,
    minimize,
)
from repro.dependencies import (
    EGD,
    TGD,
    DependencySet,
    FunctionalDependency,
    InclusionDependency,
    attribute_closure,
    check_database,
    database_satisfies,
    fd_implies,
    ind_implied_by_axioms,
)
from repro.chase import (
    ChaseConfig,
    ChaseResult,
    ChaseVariant,
    chase,
    chase_instance,
    o_chase,
    r_chase,
)
from repro.containment import (
    ContainmentCertificate,
    ContainmentResult,
    are_equivalent,
    contains,
    finite_containment_sample,
    is_contained,
    is_minimal_under,
    k_sigma,
    minimize_under,
    section4_counterexample,
    theorem2_level_bound,
)
from repro.optimizer import OptimizationReport, optimize
from repro.views import (
    RewriteReport,
    Rewriting,
    View,
    ViewCatalog,
    expand_query,
    rewrite_with_views,
)
from repro.api import (
    ChaseRequest,
    ChaseResponse,
    ContainmentRequest,
    ContainmentResponse,
    OptimizeRequest,
    OptimizeResponse,
    PairwiseContainment,
    RewriteRequest,
    RewriteResponse,
    Solver,
    SolverConfig,
    get_default_solver,
    reset_default_solver,
    set_default_solver,
)

__version__ = "1.2.0"

__all__ = [
    "Attribute",
    "ChaseBudgetExceeded",
    "ChaseConfig",
    "ChaseError",
    "ChaseRequest",
    "ChaseResponse",
    "ChaseResult",
    "ChaseVariant",
    "Conjunct",
    "ConjunctiveQuery",
    "Constant",
    "ContainmentCertificate",
    "ContainmentRequest",
    "ContainmentResponse",
    "ContainmentResult",
    "ContainmentUndecided",
    "Database",
    "DatabaseSchema",
    "DependencyError",
    "DependencySet",
    "DistinguishedVariable",
    "Domain",
    "EGD",
    "EvaluationError",
    "FreshVariableFactory",
    "FunctionalDependency",
    "InclusionDependency",
    "IntegrityError",
    "NonDistinguishedVariable",
    "OptimizationReport",
    "OptimizeRequest",
    "OptimizeResponse",
    "PairwiseContainment",
    "ParseError",
    "QueryBuilder",
    "QueryError",
    "QueryGraph",
    "RelationInstance",
    "RelationSchema",
    "ReproError",
    "RewriteReport",
    "RewriteRequest",
    "RewriteResponse",
    "Rewriting",
    "SchemaError",
    "Solver",
    "SolverConfig",
    "Substitution",
    "TGD",
    "Variable",
    "View",
    "ViewCatalog",
    "ViewError",
    "are_equivalent",
    "attribute_closure",
    "canonical_database",
    "chase",
    "chase_instance",
    "check_database",
    "contains",
    "core_of",
    "database_satisfies",
    "evaluate",
    "expand_query",
    "fd_implies",
    "finite_containment_sample",
    "get_default_solver",
    "ind_implied_by_axioms",
    "is_contained",
    "is_minimal",
    "is_minimal_under",
    "k_sigma",
    "minimize",
    "minimize_under",
    "o_chase",
    "optimize",
    "r_chase",
    "reset_default_solver",
    "rewrite_with_views",
    "section4_counterexample",
    "set_default_solver",
    "theorem2_level_bound",
]
