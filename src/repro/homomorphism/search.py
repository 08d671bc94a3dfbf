"""Backtracking homomorphism search with adaptive ordering.

The search maps source atoms onto target facts one atom at a time,
maintaining a partial variable assignment.  At every step it picks the
*most constrained* unmapped atom — the one with the fewest candidate
target facts given the bindings made so far, ties going to the atom
listed first — which is the classic fail-first heuristic and makes the
(NP-hard in general) search fast on the structured instances produced by
chases and benchmarks.

Each search compiles its problem once.  Source variables get dense ids,
each atom's variable positions are listed once, and the assignment is a
list indexed by variable id plus a trail of the bindings made on the
current path.  Candidate sets are seeded once per atom from the target's
per-column indexes, using the atom's constants and the required
bindings, and then *narrowed* monotonically as variables become bound
(forward checking): binding a variable filters only the candidate lists
of the unmapped atoms that mention it, comparing just the positions of
the variables just bound, and a branch is abandoned as soon as any list
runs dry.

Only choices that bind something branch.  An atom whose variables are
all bound — at the root by the required bindings, or later by the
search — and whose candidate list is not empty is satisfied and leaves
the search.  Mapping it would bind nothing, and would repeat the rest of
the search once per matching duplicate fact.  Compared with mapping
every atom in turn, the search therefore visits fewer nodes but yields
the same sequence of solutions: a satisfied atom never changes which
atom is chosen next or what it binds, and a repeated subtree yields
nothing new.

Solutions are reported as plain ``dict`` objects mapping source variables
to target entries: the required bindings first, then the bindings of the
search path in the order they were made (within one atom, in the order
its variables first occur).  Constants are never included in the
mapping; they are checked against the target facts during matching.

A search's state (candidate lists, assignment, trail, the solutions
seen) lives until its generator finishes or is closed, and is then
freed by reference counting, not left for the cycle collector.  A
consumer that stops early frees it by closing the generator or simply
dropping it, as ``next(search, None)`` does.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.homomorphism.problem import HomomorphismProblem, TargetIndex
from repro.obs import probe as _probe
from repro.obs.tracing import maybe_span
from repro.terms.term import Constant, Variable

Assignment = Dict[Variable, Any]
#: ``(position, variable id)`` pairs: where variables occur in one atom.
Slots = List[Tuple[int, int]]


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _initial_candidates(atom: Any, slots: Slots, target: TargetIndex,
                        values: List[Any]) -> List[Tuple[Any, ...]]:
    """Candidate target facts for one atom under the required bindings.

    Pins both the atom's constant positions and its already-bound
    variables, so the per-column indexes narrow the fact list before any
    per-fact matching happens.  The index has matched the constants; a
    fact must still have the atom's arity, hold each bound variable's
    value, and repeat the entry of a variable the atom mentions twice.
    """
    variable_at = dict(slots)
    pins = []
    bound = []
    repeats = []
    first: Dict[int, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            pins.append((position, term))
            continue
        variable = variable_at[position]
        value = values[variable]
        if value is not _UNBOUND:
            pins.append((position, value))
            bound.append((position, value))
        elif variable in first:
            repeats.append((first[variable], position))
        else:
            first[variable] = position
    arity = len(atom.terms)
    facts = target.candidates(atom.relation, pins)
    if not bound and not repeats:
        return [fact for fact in facts if len(fact) == arity]
    return [
        fact for fact in facts
        if len(fact) == arity
        and not any(value != fact[position] for position, value in bound)
        and not any(fact[earlier] != fact[position] for earlier, position in repeats)
    ]


def _narrow(facts: List[Tuple[Any, ...]], checks: Slots,
            values: List[Any]) -> List[Tuple[Any, ...]]:
    """The facts that hold the values just bound at the ``checks`` slots.

    Values are compared with ``!=``, as in every match of the search, so
    a raw NaN entry holds no value, not even the same NaN object.
    """
    if len(checks) == 1:
        position, variable = checks[0]
        value = values[variable]
        return [fact for fact in facts if not value != fact[position]]
    pinned = [(position, values[variable]) for position, variable in checks]
    return [fact for fact in facts
            if not any(value != fact[position] for position, value in pinned)]


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
    """Report one enumeration (and its solution count) to the probe.

    The report fires when the generator is exhausted *or* closed, so an
    early-exiting consumer still counts, via the ``finally`` running on
    generator close.
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
    atoms = problem.source_atoms
    required = problem.required
    ids: Dict[Any, int] = {}
    slots: List[Slots] = [
        [(position, ids.setdefault(term, len(ids)))
         for position, term in enumerate(atom.terms)
         if not isinstance(term, Constant)]
        for atom in atoms
    ]
    values: List[Any] = [_UNBOUND] * len(ids)
    for variable, value in required.items():
        if variable in ids:
            values[ids[variable]] = value
    candidates = [_initial_candidates(atom, atom_slots, problem.target, values)
                  for atom, atom_slots in zip(atoms, slots)]
    if not all(candidates):
        return
    # occurrences[id]: the (atom, position) slots of one variable.
    occurrences: List[Slots] = [[] for _ in ids]
    for index, atom_slots in enumerate(slots):
        for position, variable in atom_slots:
            occurrences[variable].append((index, position))
    # (term, variable id) for each binding on the current path, in order.
    trail: List[Tuple[Any, int]] = []
    seen: set = set()

    def backtrack(remaining: List[int]) -> Iterator[Assignment]:
        if not remaining:
            key = tuple(values)
            if key not in seen:
                seen.add(key)
                solution = dict(required)
                for term, variable in trail:
                    solution[term] = values[variable]
                yield solution
            return
        # Most-constrained-atom ordering (fail-first heuristic); ``index``
        # finds the first of equals and ``remaining`` is ascending.
        sizes = [len(candidates[index]) for index in remaining]
        chosen = remaining[sizes.index(min(sizes))]
        terms = atoms[chosen].terms
        # The chosen atom's unbound variables, each at its first position.
        fresh: Dict[int, int] = {}
        for position, variable in slots[chosen]:
            if values[variable] is _UNBOUND and variable not in fresh:
                fresh[variable] = position
        # Forward-checking plan, the same for every fact of the chosen
        # atom: the slots of the fresh variables in each other unmapped
        # atom, and whether that atom is then satisfied.
        live = set(remaining)
        live.discard(chosen)
        checks: Dict[int, Slots] = {}
        for variable in fresh:
            for index, position in occurrences[variable]:
                if index in live:
                    checks.setdefault(index, []).append((position, variable))
        plan = []
        for index, atom_checks in checks.items():
            satisfied = all(values[variable] is not _UNBOUND or variable in fresh
                            for _, variable in slots[index])
            if satisfied:
                live.discard(index)
            plan.append((index, atom_checks, satisfied))
        rest = [index for index in remaining if index in live]
        trail.extend((terms[position], variable) for variable, position in fresh.items())
        for fact in candidates[chosen]:
            for variable, position in fresh.items():
                values[variable] = fact[position]
            saved = []
            for index, atom_checks, satisfied in plan:
                narrowed = _narrow(candidates[index], atom_checks, values)
                if not narrowed:
                    break
                if not satisfied:
                    saved.append((index, candidates[index]))
                    candidates[index] = narrowed
            else:
                yield from backtrack(rest)
            for index, previous in saved:
                candidates[index] = previous
        for variable in fresh:
            values[variable] = _UNBOUND
        del trail[-len(fresh):]

    try:
        yield from backtrack([index for index, atom_slots in enumerate(slots)
                              if any(values[variable] is _UNBOUND
                                     for _, variable in atom_slots)])
    finally:
        # ``backtrack`` reaches itself through its closure cell; emptying
        # the cell breaks that cycle, so the search's state is freed by
        # reference counting once the generator finishes or is closed.
        del backtrack


def find_homomorphism(problem: HomomorphismProblem) -> Optional[Assignment]:
    """Return one homomorphism, or ``None`` if none exists.

    Reports its one search to the probe itself, with 1 or 0 solutions
    found, so a single search needs no :func:`_iter_counted` wrapper.
    """
    with maybe_span("homomorphism.search") as span:
        if span is not None:
            span.tags["atoms"] = len(problem.source_atoms)
        assignment = next(_iter_homomorphisms(problem), None)
        found = assignment is not None
        if span is not None:
            span.tags["found"] = found
    probe = _probe.ACTIVE
    if probe is not None:
        probe.homomorphism(len(problem.source_atoms), int(found))
    return assignment


def has_homomorphism(problem: HomomorphismProblem) -> bool:
    """True if at least one homomorphism exists."""
    return find_homomorphism(problem) is not None


def count_homomorphisms(problem: HomomorphismProblem, limit: Optional[int] = None) -> int:
    """Count homomorphisms (up to ``limit`` if given)."""
    if limit is not None and limit <= 0:
        return 0
    count = 0
    for _ in iter_homomorphisms(problem):
        count += 1
        if limit is not None and count >= limit:
            break
    return count
