"""Differential test: the homomorphism search against its reference.

The reference below is the previous search, kept verbatim: it makes
every atom a branching level, re-matches whole candidates with
``_matches`` and copies the candidate dict at each node.  The production
search (``repro.homomorphism.search``) compiles each problem to dense
variable ids and branches only on atoms that bind something, and it must
yield exactly the same solutions — the same dicts, in the same order,
with the same keys in the same order, holding the same objects — because
``homomorphism_to_dict`` puts a witness on the wire in ``items()`` order.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.chase import ChaseConfig, chase
from repro.homomorphism.problem import HomomorphismProblem, TargetIndex, constant_matches
from repro.homomorphism.query_homomorphism import _summary_bindings, build_target_index
from repro.homomorphism.search import iter_homomorphisms
from repro.queries.conjunct import Conjunct
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Variable
from repro.workloads import (
    DependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    ViewCatalogGenerator,
)

Assignment = Dict[Variable, Any]


# -- the reference search (verbatim) ------------------------------------------

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


# -- comparison ---------------------------------------------------------------

#: Solutions compared per problem; enough to cover every problem here
#: whose enumeration is not huge.
LIMIT = 200


def assert_same_solutions(problem: HomomorphismProblem) -> List[Assignment]:
    """Both searches yield the same sequence: equal dicts, the same key
    order, and the very same key and value objects."""
    expected = list(itertools.islice(_iter_homomorphisms(problem), LIMIT))
    actual = list(itertools.islice(iter_homomorphisms(problem), LIMIT))
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert list(got.items()) == list(want.items())
        assert all(mine is theirs for mine, theirs in zip(got, want))
        assert all(mine is theirs
                   for mine, theirs in zip(got.values(), want.values()))
    return actual


# -- seeded random problems ---------------------------------------------------

NAN = float("nan")
ARITIES = {"R": 2, "S": 3, "T": 1}


def _variable(name: str) -> Variable:
    # Equal variables are distinct objects, as a parser produces them.
    kind = DistinguishedVariable if name in ("x0", "x1") else NonDistinguishedVariable
    return kind(name)


def _target_value(rng: random.Random) -> Any:
    roll = rng.random()
    if roll < 0.4:
        return rng.randrange(2)                       # raw values
    if roll < 0.65:
        return Constant(rng.randrange(2))             # constants beside them
    if roll < 0.85:
        return NonDistinguishedVariable(f"n{rng.randrange(2)}")
    if roll < 0.9:
        return NAN                                    # one shared NaN object
    if roll < 0.93:
        return float("nan")                           # a fresh NaN
    return rng.choice((None, "k", 1.0, True))


def _source_term(rng: random.Random, variables: int) -> Any:
    if rng.random() < 0.2:
        return Constant(rng.choice((0, 1, "k", None)))
    return _variable(f"x{rng.randrange(variables)}")


def random_problem(rng: random.Random) -> HomomorphismProblem:
    variables = rng.randint(1, 5)
    atoms = []
    for _ in range(rng.randint(1, 6)):
        relation = rng.choice(sorted(ARITIES))
        atoms.append(Conjunct(relation, [_source_term(rng, variables)
                                         for _ in range(ARITIES[relation])]))
    target = TargetIndex()
    for relation, arity in ARITIES.items():
        if rng.random() < 0.05:
            continue  # a missing relation: trivially unsatisfiable
        facts = []
        for _ in range(rng.randint(0, 12)):
            # Now and then a fact of the wrong arity, or a duplicate.
            width = arity + 1 if rng.random() < 0.05 else arity
            facts.append(tuple(_target_value(rng) for _ in range(width)))
            if rng.random() < 0.2:
                facts.append(rng.choice(facts))
        for fact in facts:
            target.add(relation, fact)
    required: Dict[Variable, Any] = {}
    for index in range(variables + 1):  # x<variables> occurs in no atom
        if rng.random() < 0.25:
            required[_variable(f"x{index}")] = _target_value(rng)
    return HomomorphismProblem(atoms, target, required=required)


class TestSeededRandomProblems:
    @pytest.mark.parametrize("block", range(4))
    def test_same_solutions_in_the_same_order(self, block):
        rng = random.Random(f"search-differential:{block}")
        solved = 0
        for _ in range(500):
            solved += bool(assert_same_solutions(random_problem(rng)))
        # The generator is not degenerate: a fair share has solutions.
        assert solved > 40

    def test_nan_entries_never_equal_a_bound_value(self):
        # A raw NaN in a database target: ``nan != nan`` holds even for the
        # same object, so a repeated variable cannot map onto it, and a
        # variable bound to NaN matches no later NaN entry.
        x, y = NonDistinguishedVariable("x"), NonDistinguishedVariable("y")
        target = TargetIndex({"R": [(NAN, NAN), (NAN, 1), (1, 1)],
                              "S": [(NAN,), (1,)]})
        repeated = HomomorphismProblem([Conjunct("R", [x, x])], target)
        assert assert_same_solutions(repeated) == [{x: 1}]
        joined = HomomorphismProblem(
            [Conjunct("S", [x]), Conjunct("R", [x, y])], target)
        assert assert_same_solutions(joined) == [{x: 1, y: 1}]
        pinned = HomomorphismProblem([Conjunct("S", [x])], target,
                                     required={x: NAN})
        assert assert_same_solutions(pinned) == []

    def test_duplicate_facts_yield_each_assignment_once(self):
        x, y = NonDistinguishedVariable("x"), NonDistinguishedVariable("y")
        target = TargetIndex({"R": [(1, 2)] * 4 + [(1, 3)] * 3})
        problem = HomomorphismProblem(
            [Conjunct("R", [x, y]), Conjunct("R", [x, y]), Conjunct("R", [x, Constant(2)])],
            target)
        assert assert_same_solutions(problem) == [{x: 1, y: 2}, {x: 1, y: 3}]

    def test_required_bindings_come_first_even_outside_the_atoms(self):
        x, y, z = (NonDistinguishedVariable(name) for name in "xyz")
        target = TargetIndex({"R": [(1, 2), (2, 3)]})
        problem = HomomorphismProblem([Conjunct("R", [x, y])], target,
                                      required={z: "z", y: 3})
        solutions = assert_same_solutions(problem)
        assert [list(solution) for solution in solutions] == [[z, y, x]]


# -- 3-colouring patterns at served size --------------------------------------

def colouring_problem(seed: int, vertices: int = 16, edges: int = 36) -> HomomorphismProblem:
    """A random graph (both directions of each edge) into the triangle,
    its first vertex pinned as the graph query's summary row pins it."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(vertices), 2))
    chosen = sorted(rng.sample(pairs, edges))
    vertex = [NonDistinguishedVariable(f"v{index}") for index in range(vertices)]
    atoms = []
    for u, w in chosen:
        atoms.append(Conjunct("E", [vertex[u], vertex[w]]))
        atoms.append(Conjunct("E", [vertex[w], vertex[u]]))
    a, b, c = (DistinguishedVariable(name) for name in "abc")
    triangle = TargetIndex({"E": [(a, b), (b, a), (b, c), (c, b), (c, a), (a, c)]})
    return HomomorphismProblem(atoms, triangle, required={vertex[chosen[0][0]]: a})


class TestThreeColouringPatterns:
    def test_served_size_patterns(self):
        colourable = 0
        for seed in range(12):
            colourable += bool(assert_same_solutions(colouring_problem(seed)))
        # Near the colouring threshold both verdicts occur.
        assert 0 < colourable < 12

    def test_sparser_patterns_enumerate_many_colourings(self):
        solutions = assert_same_solutions(colouring_problem(7, vertices=10, edges=12))
        assert len(solutions) > 1


# -- views and queries into chases built with repro.workloads -----------------

def chased_workload(seed: int):
    schema = SchemaGenerator(seed=seed).uniform(6, 3, prefix="W")
    sigma = DependencyGenerator(schema, seed=seed).key_based(3)
    catalog = ViewCatalogGenerator(schema, seed=seed).lav_catalog(24, sigma)
    return sigma, catalog, QueryGenerator(schema, seed=seed)


class TestChaseTargets:
    @pytest.mark.parametrize("seed", range(4))
    def test_views_into_the_chase_of_a_query(self, seed):
        sigma, catalog, queries = chased_workload(seed)
        config = ChaseConfig(max_level=3, record_trace=False)
        images = 0
        for length in (2, 3, 4):
            result = chase(queries.chain(length, name="Q"), sigma, config)
            index = build_target_index(list(result.conjuncts()))
            for view in catalog:
                problem = HomomorphismProblem(view.definition.conjuncts, index)
                images += len(assert_same_solutions(problem))
        assert images > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_queries_into_a_chase_with_the_summary_row_pinned(self, seed):
        sigma, _, queries = chased_workload(seed)
        config = ChaseConfig(max_level=3, record_trace=False)
        found = 0
        for length in (3, 4):
            query = queries.chain(length, name="Q")
            result = chase(query, sigma, config)
            index = build_target_index(list(result.conjuncts()))
            for other in [queries.weakened(query, drop_count=1) for _ in range(6)]:
                required = _summary_bindings(other.summary_row, result.summary_row)
                if required is None:
                    continue
                problem = HomomorphismProblem(other.conjuncts, index, required=required)
                found += bool(assert_same_solutions(problem))
        assert found > 0
