"""Backtracking homomorphism search with adaptive ordering.

The search maps source atoms onto target facts one atom at a time,
maintaining a partial variable assignment.  At every step it picks the
*most constrained* unmapped atom — the one with the fewest candidate
target facts given the bindings made so far — which is the classic
fail-first heuristic and makes the (NP-hard in general) search fast on the
structured instances produced by chases and benchmarks.

Candidate sets are computed once per atom — seeded from the target's
per-column indexes using the atom's constants and any pre-bound
variables — and then *narrowed* monotonically as variables become bound
(forward checking): binding a variable filters only the candidate lists
of the unmapped atoms that mention it, and a branch is abandoned as soon
as any unmapped atom has no candidates left.  The seed implementation
recomputed every atom's candidates from scratch at every node of the
search tree; the narrowing strategy visits the same nodes in the same
order but does strictly less work per node.

Solutions are reported as plain ``dict`` objects mapping source variables
to target entries.  Constants are never included in the mapping; they are
checked against the target facts during matching.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.homomorphism.problem import HomomorphismProblem, TargetIndex, constant_matches
from repro.obs import probe as _probe
from repro.obs.tracing import maybe_span
from repro.terms.term import Constant, Variable

Assignment = Dict[Variable, Any]


def _initial_candidates(atom: Any, target: TargetIndex,
                        assignment: Assignment) -> List[Tuple[Any, ...]]:
    """Candidate target facts for one atom under the initial assignment.

    Pins both the atom's constant positions and its already-bound
    variables, so the per-column indexes narrow the fact list before any
    per-fact matching happens.
    """
    pins = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            pins.append((position, term))
        elif isinstance(term, Variable) and term in assignment:
            pins.append((position, assignment[term]))
    candidates = target.candidates(atom.relation, pins)
    return [fact for fact in candidates if _matches(atom, fact, assignment) is not None]


def _matches(atom: Any, fact: Sequence[Any], assignment: Assignment) -> Optional[Assignment]:
    """Try to map ``atom`` onto ``fact`` consistently with ``assignment``.

    Returns the new bindings introduced (possibly empty) or ``None`` if the
    atom cannot be mapped onto the fact.
    """
    if len(atom.terms) != len(fact):
        return None
    new_bindings: Assignment = {}
    for term, target_entry in zip(atom.terms, fact):
        if isinstance(term, Constant):
            if not constant_matches(term, target_entry):
                return None
            continue
        bound = assignment.get(term, new_bindings.get(term, _UNBOUND))
        if bound is _UNBOUND:
            new_bindings[term] = target_entry
        elif bound != target_entry:
            return None
    return new_bindings


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def iter_homomorphisms(problem: HomomorphismProblem) -> Iterator[Assignment]:
    """Yield every homomorphism solving ``problem``.

    The same variable assignment may be reachable through different
    atom-to-fact mappings; duplicates (as assignments) are suppressed.
    """
    probe = _probe.ACTIVE
    if probe is None:
        return _iter_homomorphisms(problem)
    return _iter_counted(probe, problem)


def _iter_counted(probe, problem: HomomorphismProblem) -> Iterator[Assignment]:
    """Report one search (and its solution count) to the probe.

    The report fires when the generator is exhausted *or* closed — an
    early-exiting consumer (``find_homomorphism`` takes one solution)
    still counts, via the ``finally`` running on generator close.
    """
    found = 0
    try:
        for assignment in _iter_homomorphisms(problem):
            found += 1
            yield assignment
    finally:
        probe.homomorphism(len(problem.source_atoms), found)


def _iter_homomorphisms(problem: HomomorphismProblem) -> Iterator[Assignment]:
    if problem.is_trivially_unsatisfiable():
        return
    atoms = list(problem.source_atoms)
    atom_variables = [
        frozenset(term for term in atom.terms if isinstance(term, Variable))
        for atom in atoms
    ]
    seen: set = set()
    initial: Assignment = dict(problem.required)
    candidates: Dict[int, List[Tuple[Any, ...]]] = {
        index: _initial_candidates(atom, problem.target, initial)
        for index, atom in enumerate(atoms)
    }

    def backtrack(remaining: List[int], assignment: Assignment,
                  candidates: Dict[int, List[Tuple[Any, ...]]]) -> Iterator[Assignment]:
        if not remaining:
            frozen = frozenset(assignment.items())
            if frozen not in seen:
                seen.add(frozen)
                yield dict(assignment)
            return
        # Most-constrained-atom ordering (fail-first heuristic).
        chosen = min(remaining, key=lambda index: (len(candidates[index]), index))
        if not candidates[chosen]:
            return
        rest = [index for index in remaining if index != chosen]
        atom = atoms[chosen]
        for fact in candidates[chosen]:
            new_bindings = _matches(atom, fact, assignment)
            if new_bindings is None:
                continue
            assignment.update(new_bindings)
            # Forward checking: narrow only the unmapped atoms that mention
            # a newly bound variable; fail fast when one runs dry.
            narrowed = candidates
            viable = True
            if new_bindings:
                bound = new_bindings.keys()
                narrowed = dict(candidates)
                for index in rest:
                    if atom_variables[index].isdisjoint(bound):
                        continue
                    narrowed[index] = [
                        candidate for candidate in candidates[index]
                        if _matches(atoms[index], candidate, assignment) is not None
                    ]
                    if not narrowed[index]:
                        viable = False
                        break
            if viable:
                yield from backtrack(rest, assignment, narrowed)
            for variable in new_bindings:
                del assignment[variable]

    yield from backtrack(list(range(len(atoms))), initial, candidates)


def find_homomorphism(problem: HomomorphismProblem) -> Optional[Assignment]:
    """Return one homomorphism, or ``None`` if none exists."""
    with maybe_span("homomorphism.search",
                    atoms=len(problem.source_atoms)) as span:
        for assignment in iter_homomorphisms(problem):
            if span is not None:
                span.tags["found"] = True
            return assignment
        if span is not None:
            span.tags["found"] = False
        return None


def has_homomorphism(problem: HomomorphismProblem) -> bool:
    """True if at least one homomorphism exists."""
    return find_homomorphism(problem) is not None


def count_homomorphisms(problem: HomomorphismProblem, limit: Optional[int] = None) -> int:
    """Count homomorphisms (up to ``limit`` if given)."""
    count = 0
    for _ in iter_homomorphisms(problem):
        count += 1
        if limit is not None and count >= limit:
            break
    return count
