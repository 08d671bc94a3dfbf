"""Query-to-database homomorphisms (query evaluation).

A tuple ``a`` belongs to Q(B) iff there is a homomorphism from Q to the
database B whose image of the summary row is ``a`` (Section 2 of the
paper).  The helpers here build the homomorphism problem whose target facts
are the rows of a :class:`~repro.relational.database.Database` and collect
summary-row images.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.homomorphism.problem import HomomorphismProblem, TargetIndex
from repro.homomorphism.search import find_homomorphism, iter_homomorphisms
from repro.relational.database import Database
from repro.terms.term import Constant, Term, Variable

Assignment = Dict[Variable, Any]

#: Marks a summary variable not yet pinned; ``None`` is a database value.
_MISSING = object()


def database_target_index(database: Database) -> TargetIndex:
    """Index every row of every relation of the database for the search."""
    index = TargetIndex()
    for relation in database:
        for row in relation:
            index.add(relation.name, row)
    return index


def _materialise_summary(entry: Term, assignment: Assignment) -> Any:
    """Value of one summary-row entry under an assignment."""
    if isinstance(entry, Constant):
        return entry.value
    return assignment.get(entry)


def iter_database_homomorphisms(atoms: Sequence[Any], database: Database,
                                required: Optional[Dict[Variable, Any]] = None,
                                index: Optional[TargetIndex] = None) -> Iterator[Assignment]:
    """Iterate over all homomorphisms from the atoms into the database."""
    target = index if index is not None else database_target_index(database)
    problem = HomomorphismProblem(atoms, target, required=required)
    yield from iter_homomorphisms(problem)


def find_database_homomorphism(atoms: Sequence[Any], database: Database,
                               required: Optional[Dict[Variable, Any]] = None,
                               index: Optional[TargetIndex] = None) -> Optional[Assignment]:
    """One homomorphism from the atoms into the database, or ``None``."""
    target = index if index is not None else database_target_index(database)
    problem = HomomorphismProblem(atoms, target, required=required)
    return find_homomorphism(problem)


def evaluate_atoms(atoms: Sequence[Any], summary_row: Sequence[Term],
                   database: Database,
                   index: Optional[TargetIndex] = None) -> Set[Tuple[Any, ...]]:
    """The answer relation: all images of the summary row.

    Constants in the summary row contribute their raw values, matching the
    convention that Q(B)'s entries are domain values, not terms.
    """
    target = index if index is not None else database_target_index(database)
    problem = HomomorphismProblem(atoms, target)
    answers: Set[Tuple[Any, ...]] = set()
    for assignment in iter_homomorphisms(problem):
        answers.add(tuple(_materialise_summary(entry, assignment) for entry in summary_row))
    return answers


def answers_contain(atoms: Sequence[Any], summary_row: Sequence[Term],
                    database: Database, row: Sequence[Any]) -> bool:
    """True if ``row`` belongs to the answer of the query over the database.

    This is the membership form used by the finite-containment sampler: it
    pins the summary row to the candidate answer and asks for a single
    homomorphism rather than enumerating the full answer relation.
    """
    values = tuple(row)
    if len(values) != len(summary_row):
        return False
    required: Dict[Variable, Any] = {}
    for entry, value in zip(summary_row, values):
        if isinstance(entry, Constant):
            if entry.value != value:
                return False
            continue
        existing = required.get(entry, _MISSING)
        if existing is not _MISSING and existing != value:
            return False
        required[entry] = value
    return find_database_homomorphism(atoms, database, required=required) is not None
