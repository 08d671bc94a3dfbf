"""Containment under functional dependencies only.

The classical result the paper builds on: with Σ containing only FDs,
``Σ ⊨ Q ⊆ Q'`` iff there is a query homomorphism from Q' to the (finite)
FD chase of Q.  If the chase fails on a constant clash, Q returns the
empty answer on every Σ-database and the containment holds vacuously.

On FD-only Σ the chase is the Maier–Mendelzon–Sagiv chase (the paper's
reference [11]): no IND creates a conjunct, so it is finite and is
built by the ordinary chase engine, with no budget in play.  No answer
cache is consulted.
"""

from __future__ import annotations

from typing import Optional

from repro.chase.engine import ChaseConfig, build_engine
from repro.containment.certificates import build_certificate
from repro.containment.result import ContainmentResult
from repro.dependencies.dependency_set import DependencySet
from repro.homomorphism.query_homomorphism import find_query_homomorphism
from repro.queries.conjunctive_query import ConjunctiveQuery


def contained_under_fds(query: ConjunctiveQuery, query_prime: ConjunctiveQuery,
                        dependencies: DependencySet,
                        engine: Optional[str] = None,
                        with_certificate: bool = False) -> ContainmentResult:
    """Decide ``Σ ⊨ Q ⊆∞ Q'`` for FD-only Σ via the finite chase.

    ``engine`` names the chase engine (the process default without one);
    ``with_certificate`` attaches a verifiable certificate to a positive
    answer the chase proves.
    """
    query.require_same_interface(query_prime)
    chased = build_engine(query, dependencies,
                          ChaseConfig(record_trace=False, engine=engine)).run()
    if chased.failed:
        return ContainmentResult(
            holds=True, certain=True, method="failed-chase",
            reason="the FD chase of Q is inconsistent (constant clash); "
                   "Q is empty on every database obeying Σ",
            chase_size=0,
        )
    conjuncts = chased.conjuncts()
    mapping = find_query_homomorphism(
        query_prime.conjuncts, query_prime.summary_row,
        conjuncts, chased.summary_row,
    )
    if mapping is not None:
        certificate = None
        if with_certificate:
            certificate = build_certificate(
                query, query_prime, dependencies, chased, mapping)
        return ContainmentResult(
            holds=True, certain=True, method="fd-chase",
            reason="homomorphism from Q' to chase_F(Q) found",
            chase_size=len(conjuncts), homomorphism=mapping,
            certificate=certificate,
        )
    return ContainmentResult(
        holds=False, certain=True, method="fd-chase",
        reason="no homomorphism from Q' to chase_F(Q)",
        chase_size=len(conjuncts),
    )
