"""MiniCon-style buckets: structured candidate growth for the backchase.

The exhaustive strategy tries every subset of the matched view images up
to the combination-size budget — |images| choose k candidates, blind to
whether a combination can possibly improve on its parts.  Buckets
(Pottinger & Halevy, VLDB J. 2001) organise the images *per query
subgoal*: for each level-0 chase atom, the images whose coverage
includes it.  Candidate combinations then grow only in ways that can
matter:

* an image joins a combination only when it **covers a subgoal the
  combination has not covered yet**, or **exposes a variable of an
  already-covered subgoal** (the projection-recovery case: a view that
  re-covers atoms another view already replaced can still be essential
  when it exposes a join variable the other view projected away);
* a combination is emitted only when it respects **head-variable
  safety**: every variable shared between a covered subgoal and the
  rest of the candidate (uncovered atoms or the summary row) must be
  exposed by some view atom — otherwise the expansion freshens that
  variable away and certification cannot succeed.

Both rules trade exhaustiveness for scale; the repo's seeded
differential sweep (exhaustive vs bucketed, same best cost) is the
empirical certificate, exactly as PR 3/PR 9 certified the chase
engines.  Combinations are enumerated smallest-first in the images'
sort order, mirroring the exhaustive strategy's candidate order.

Levels are streamed: each combination is checked and yielded as it is
grown, and only a level that grows further is kept, as the list the
next level extends.  The last level (size ``max_combination_size``) is
never stored, and a consumer that stops early never grows the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.queries.conjunct import Conjunct
from repro.terms.term import Term, Variable

__all__ = ["BucketStatistics", "build_buckets", "iter_bucket_combinations"]

#: One growing combination: (indices, covered labels, covered-atom
#: variables, exposed variables).
Entry = Tuple[Tuple[int, ...], FrozenSet[str], FrozenSet[Variable],
              FrozenSet[Variable]]
Level = List[Entry]


@dataclass
class BucketStatistics:
    """Counters the bucketed strategy reports back into the pipeline."""

    buckets: int = 0
    combos_emitted: int = 0
    combos_pruned_unsafe: int = 0


def build_buckets(images: Sequence, base_conjuncts: Sequence[Conjunct],
                  ) -> Dict[str, Tuple[int, ...]]:
    """Per-subgoal buckets: base-atom label → positions of covering images."""
    buckets: Dict[str, List[int]] = {
        conjunct.label: [] for conjunct in base_conjuncts}
    for position, image in enumerate(images):
        for label in image.covered_labels:
            members = buckets.get(label)
            if members is not None:
                members.append(position)
    return {label: tuple(members) for label, members in buckets.items()}


def _variables(terms: Sequence[Term]) -> FrozenSet[Variable]:
    return frozenset(term for term in terms if isinstance(term, Variable))


def iter_bucket_combinations(images: Sequence,
                             buckets: Dict[str, Tuple[int, ...]],
                             base_conjuncts: Sequence[Conjunct],
                             summary_row: Sequence[Term],
                             max_combination_size: int,
                             statistics: BucketStatistics,
                             ) -> Iterator[Tuple]:
    """Yield image combinations worth certifying, smallest first.

    Combinations are index-increasing tuples over ``images`` (which the
    pipeline has already sorted most-covering-first): size-1 combinations
    are every image, and a size-k combination extends a size-(k-1) one
    with a later image that either covers a new subgoal or exposes a
    variable of an already-covered one.  Unsafe combinations (linking
    variable not exposed) are counted, not yielded — but they still
    grow, because a later image can expose the missing variable.
    """
    atom_variables = {
        conjunct.label: _variables(conjunct.terms)
        for conjunct in base_conjuncts}
    summary_variables = _variables(summary_row)
    image_variables = [_variables(image.atom.terms) for image in images]
    # Inverted postings: which images expose a given variable.  Drives
    # the projection-recovery extension rule.
    exposing: Dict[Variable, List[int]] = {}
    for position, variables in enumerate(image_variables):
        for variable in variables:
            exposing.setdefault(variable, []).append(position)

    def grown(level: Level) -> Iterator[Entry]:
        """The next level: each entry extended by every later image that
        covers a new subgoal or exposes a covered variable."""
        for indices, covered, covered_variables, exposed in level:
            last = indices[-1]
            candidates: Set[int] = set()
            for label, members in buckets.items():
                if label not in covered:
                    candidates.update(
                        member for member in members if member > last)
            for variable in covered_variables:
                candidates.update(
                    member for member in exposing.get(variable, ())
                    if member > last)
            for position in sorted(candidates):
                grown_covered = covered | images[position].covered_labels
                grown_variables = covered_variables.union(*(
                    atom_variables[label]
                    for label in images[position].covered_labels))
                yield (
                    indices + (position,),
                    grown_covered,
                    grown_variables,
                    exposed | image_variables[position],
                )

    entries: Iterator[Entry] = (
        (
            (position,),
            images[position].covered_labels,
            frozenset().union(*(
                atom_variables[label]
                for label in images[position].covered_labels)),
            image_variables[position],
        )
        for position in range(len(images))
    )
    size = 1
    while True:
        # Only a level that grows further is kept, for the next one.
        kept: Optional[Level] = [] if size < max_combination_size else None
        for entry in entries:
            indices, covered, covered_variables, exposed = entry
            outside: Set[Variable] = set(summary_variables)
            for label, variables in atom_variables.items():
                if label not in covered:
                    outside |= variables
            if (covered_variables & outside) <= exposed:
                statistics.combos_emitted += 1
                yield tuple(images[position] for position in indices)
            else:
                statistics.combos_pruned_unsafe += 1
            if kept is not None:
                kept.append(entry)
        if not kept:
            return
        entries = grown(kept)
        size += 1
