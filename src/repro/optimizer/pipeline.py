"""The rewrite pipeline: FD simplification, join elimination, minimization.

Each stage preserves equivalence under Σ and records what it did:

1. **FD simplification** — chase the query with Σ's FDs; this merges
   variables that the FDs force equal and coalesces duplicate atoms
   (classical tableau simplification).  If the chase fails on a constant
   clash the query is unsatisfiable on every Σ-database and the report
   says so.
2. **Join elimination** — repeatedly drop a conjunct c whenever
   ``Σ ⊨ (Q − c) ⊆ Q`` (the other direction always holds), i.e. whenever
   the dependencies guarantee the dropped atom's existence.  This is the
   paper's intro-example optimization generalised.
3. **Core minimization** — fold the remaining query onto itself (Σ = ∅
   core computation) to remove joins that are redundant for purely
   structural reasons.

The report carries, for every removed conjunct, the containment result
that justified the removal, so ``report.verify()`` can re-check the whole
rewrite chain after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chase.fd_chase import fd_only_chase
from repro.containment.equivalence import are_equivalent
from repro.containment.result import ContainmentResult
from repro.dependencies.dependency_set import DependencySet
from repro.exceptions import QueryError
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.minimization import minimize as core_minimize


@dataclass
class RewriteStep:
    """One rewrite performed by the pipeline."""

    stage: str                      # "fd-simplify", "join-elimination", "core"
    description: str
    removed_conjunct: Optional[Conjunct] = None
    justification: Optional[ContainmentResult] = None


@dataclass
class OptimizationReport:
    """The outcome of :func:`optimize`.

    ``unsatisfiable`` is True when the FD chase failed on a constant
    clash — the query returns the empty answer on every Σ-database, so any
    query with the same interface (for example one with an impossible
    constant filter) is a valid rewrite and ``optimized`` is left equal to
    the FD-simplified original.
    """

    original: ConjunctiveQuery
    optimized: ConjunctiveQuery
    dependencies: DependencySet
    steps: List[RewriteStep] = field(default_factory=list)
    unsatisfiable: bool = False

    @property
    def conjuncts_removed(self) -> int:
        return len(self.original) - len(self.optimized)

    def removed_conjuncts(self) -> List[Conjunct]:
        return [step.removed_conjunct for step in self.steps
                if step.removed_conjunct is not None]

    def verify(self) -> bool:
        """Re-check that the optimized query is equivalent under Σ.

        Uses the containment engine directly (not the recorded
        justifications), so it is an independent end-to-end check.
        """
        if self.unsatisfiable:
            return True
        return are_equivalent(self.original, self.optimized, self.dependencies)

    def describe(self) -> str:
        lines = [
            f"optimization of {self.original.name}: "
            f"{len(self.original)} -> {len(self.optimized)} conjuncts"
        ]
        if self.unsatisfiable:
            lines.append("  query is unsatisfiable under Σ (FD constant clash)")
        for step in self.steps:
            lines.append(f"  [{step.stage}] {step.description}")
        lines.append(f"  result: {self.optimized}")
        return "\n".join(lines)


def simplify_with_fds(query: ConjunctiveQuery, dependencies: DependencySet,
                      steps: Optional[List[RewriteStep]] = None) -> Optional[ConjunctiveQuery]:
    """Stage 1: chase with the FDs of Σ; ``None`` means unsatisfiable."""
    fds = dependencies.functional_dependencies()
    if not fds:
        return query
    result = fd_only_chase(query, fds)
    if result.failed:
        if steps is not None:
            steps.append(RewriteStep(
                stage="fd-simplify",
                description="FD chase failed on a constant clash; the query is "
                            "empty on every database obeying Σ",
            ))
        return None
    chased = result.query
    assert chased is not None
    if steps is not None and (result.steps > 0 or len(chased) != len(query)):
        steps.append(RewriteStep(
            stage="fd-simplify",
            description=f"FD chase applied {result.steps} merge(s), "
                        f"{len(query)} -> {len(chased)} conjuncts",
        ))
    return chased.renamed(query.name)


def eliminate_redundant_joins(query: ConjunctiveQuery, dependencies: DependencySet,
                              steps: Optional[List[RewriteStep]] = None,
                              solver=None,
                              **containment_options) -> ConjunctiveQuery:
    """Stage 2: drop conjuncts whose existence Σ guarantees.

    A conjunct is dropped when the reduced query is still contained in the
    original under Σ (the reverse containment is automatic).  Conjuncts
    whose removal would make the query unsafe are never candidates.

    One forward pass is complete: removing atoms only *strengthens* later
    tests (a smaller body is a weaker query, so ``(current − c) ⊆ Q``
    gets harder, never easier, as ``current`` shrinks), hence a conjunct
    that failed the test once can never pass it later.  The stage is
    therefore linear in containment calls — at most one per conjunct of
    the input query — instead of restarting the scan after every drop.

    ``containment_options`` are the legacy containment keywords, applied
    to the solver's config once; every check runs under the result.
    """
    from repro.api.solver import resolve_solver
    session = resolve_solver(solver)
    return _eliminate_redundant_joins(
        query, dependencies, steps, session,
        session.config.with_legacy_kwargs(**containment_options))


def _eliminate_redundant_joins(query: ConjunctiveQuery, dependencies: DependencySet,
                               steps: Optional[List[RewriteStep]], session,
                               config) -> ConjunctiveQuery:
    """Stage 2 on ``session``, every check under the :class:`SolverConfig` ``config``."""
    current = query
    position = 0
    while len(current) > 1 and position < len(current):
        conjunct = current.conjuncts[position]
        try:
            reduced = current.without_conjunct(conjunct.label)
        except QueryError:
            position += 1
            continue
        verdict, _ = session._decide(reduced, query, dependencies, config)
        if verdict.certain and verdict.holds:
            if steps is not None:
                steps.append(RewriteStep(
                    stage="join-elimination",
                    description=f"dropped {conjunct}: Σ guarantees it "
                                f"({verdict.reason})",
                    removed_conjunct=conjunct,
                    justification=verdict,
                ))
            current = reduced
            # The dropped conjunct's successor now sits at ``position``;
            # stay put instead of rescanning the already-cleared prefix.
        else:
            position += 1
    return current


def optimize(query: ConjunctiveQuery, dependencies: Optional[DependencySet] = None,
             name: Optional[str] = None, solver=None,
             **containment_options) -> OptimizationReport:
    """Run the full pipeline and return the audited report.

    ``solver`` is the :class:`~repro.api.solver.Solver` whose caches back
    the join-elimination containment checks; ``None`` uses the process-wide
    default solver.  ``containment_options`` are the legacy containment
    keywords, applied to the solver's config once.
    """
    from repro.api.solver import resolve_solver
    session = resolve_solver(solver)
    return _optimize(query, dependencies, name, session,
                     session.config.with_legacy_kwargs(**containment_options))


def _optimize(query: ConjunctiveQuery, dependencies: Optional[DependencySet],
              name: Optional[str], session, config) -> OptimizationReport:
    """The pipeline on ``session``, join elimination under ``config``.

    :meth:`Solver.solve <repro.api.solver.Solver.solve>` calls this with
    an :class:`~repro.api.requests.OptimizeRequest`'s own config, so every
    certification follows the config the response reports.
    """
    sigma = dependencies if dependencies is not None else DependencySet()
    steps: List[RewriteStep] = []

    simplified = simplify_with_fds(query, sigma, steps)
    if simplified is None:
        return OptimizationReport(
            original=query, optimized=query, dependencies=sigma,
            steps=steps, unsatisfiable=True,
        )

    eliminated = _eliminate_redundant_joins(simplified, sigma, steps, session, config)

    before_core = len(eliminated)
    cored = core_minimize(eliminated)
    if len(cored) < before_core:
        steps.append(RewriteStep(
            stage="core",
            description=f"core minimization removed "
                        f"{before_core - len(cored)} structurally redundant conjunct(s)",
        ))

    optimized = cored.renamed(name or f"{query.name}_optimized")
    return OptimizationReport(
        original=query, optimized=optimized, dependencies=sigma, steps=steps,
    )
