"""Differential test: streamed bucket growth against its reference.

The reference below is the previous ``iter_bucket_combinations``, kept
verbatim: it builds each whole size-k level as a list before emitting
any of it.  The production generator (``repro.views.buckets``) emits
each combination as it grows it and keeps only the levels that grow
further, and it must yield exactly the same combinations, in the same
order, with the same :class:`BucketStatistics` — also when the consumer
stops early, as the rewriter does when ``rewrite_max_candidates`` cuts
the certification loop short.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

import pytest

from repro.queries.conjunct import Conjunct
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Term, Variable
from repro.views import build_buckets, find_view_images
from repro.views.buckets import BucketStatistics, iter_bucket_combinations
from repro.workloads import DependencyGenerator, QueryGenerator, SchemaGenerator, ViewCatalogGenerator


# -- the reference growth (verbatim) ------------------------------------------

def _variables(terms: Sequence[Term]) -> FrozenSet[Variable]:
    return frozenset(term for term in terms if isinstance(term, Variable))


def reference_bucket_combinations(images: Sequence,
                                  buckets: Dict[str, Tuple[int, ...]],
                                  base_conjuncts: Sequence[Conjunct],
                                  summary_row: Sequence[Term],
                                  max_combination_size: int,
                                  statistics: BucketStatistics,
                                  ) -> Iterator[Tuple]:
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

    # (indices, covered labels, covered-atom variables, exposed variables)
    Level = List[Tuple[Tuple[int, ...], FrozenSet[str], FrozenSet[Variable],
                       FrozenSet[Variable]]]
    current: Level = [
        (
            (position,),
            images[position].covered_labels,
            frozenset().union(*(
                atom_variables[label]
                for label in images[position].covered_labels)),
            image_variables[position],
        )
        for position in range(len(images))
    ]
    size = 1
    while current:
        for indices, covered, covered_variables, exposed in current:
            outside: Set[Variable] = set(summary_variables)
            for label, variables in atom_variables.items():
                if label not in covered:
                    outside |= variables
            if (covered_variables & outside) <= exposed:
                statistics.combos_emitted += 1
                yield tuple(images[position] for position in indices)
            else:
                statistics.combos_pruned_unsafe += 1
        if size >= max_combination_size:
            break
        next_level: Level = []
        for indices, covered, covered_variables, exposed in current:
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
                next_level.append((
                    indices + (position,),
                    grown_covered,
                    grown_variables,
                    exposed | image_variables[position],
                ))
        current = next_level
        size += 1


# -- seeded image sets --------------------------------------------------------

@dataclass(frozen=True)
class Image:
    """The two fields bucket growth reads of a view image."""

    atom: Conjunct
    covered_labels: FrozenSet[str]


def random_problem(seed: int):
    """Base atoms over a few variables, and images that each cover some
    atoms and expose some of the variables (occasionally a constant)."""
    rng = random.Random(f"buckets:{seed}")
    names = [f"v{index}" for index in range(rng.randint(3, 8))]
    variables: List[Variable] = [
        DistinguishedVariable(name) if rng.random() < 0.4
        else NonDistinguishedVariable(name) for name in names]
    base = [Conjunct("R", rng.sample(variables, 2), f"c{index}")
            for index in range(rng.randint(1, 6))]
    heads = [term for term in variables
             if isinstance(term, DistinguishedVariable)]
    summary = rng.sample(heads, min(len(heads), 2))
    labels = [conjunct.label for conjunct in base]
    images = []
    for index in range(rng.randint(0, 14)):
        covered = frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        exposed: List[Term] = rng.sample(variables,
                                         rng.randint(0, len(variables)))
        if rng.random() < 0.2 or not exposed:
            exposed.append(Constant(index))
        images.append(Image(Conjunct(f"V{index}", exposed, f"v{index}"),
                            covered))
    images.sort(key=lambda image: (-len(image.covered_labels),
                                   image.atom.relation))
    return images, base, summary


def generated_problem(seed: int):
    """Real view images of a chain query in a generated LAV catalog."""
    rng = random.Random(f"catalog:{seed}")
    schema = SchemaGenerator(seed=seed).uniform(6, 3, prefix="R")
    sigma = DependencyGenerator(schema, seed=seed).key_based(3)
    catalog = ViewCatalogGenerator(schema, seed=seed).lav_catalog(40, sigma)
    query = QueryGenerator(schema, seed=seed).chain(
        4, relation_names=rng.sample(schema.relation_names, 4), name="Q")
    base = list(query.conjuncts)
    images, _, _ = find_view_images(list(catalog), base,
                                    {conjunct.label for conjunct in base},
                                    max_images=64)
    images.sort(key=lambda image: (-len(image.covered_labels),
                                   image.view_name, image.atom.label))
    return images, base, list(query.summary_row)


def both(images, base, summary, max_size):
    """Both generators over one problem, each with its own statistics."""
    buckets = build_buckets(images, base)
    ours, theirs = BucketStatistics(), BucketStatistics()
    return ((iter_bucket_combinations(images, buckets, base, summary,
                                      max_size, ours), ours),
            (reference_bucket_combinations(images, buckets, base, summary,
                                           max_size, theirs), theirs))


SEEDS = {"random": range(80), "generated": range(6)}


def problems(source: str):
    make = random_problem if source == "random" else generated_problem
    for seed in SEEDS[source]:
        yield seed, make(seed)


class TestSameCombinations:
    @pytest.mark.parametrize("max_size", [0, 1, 2, 3])
    @pytest.mark.parametrize("source", sorted(SEEDS))
    def test_same_combinations_in_the_same_order(self, source, max_size):
        for seed, (images, base, summary) in problems(source):
            (streamed, ours), (reference, theirs) = both(
                images, base, summary, max_size)
            assert list(streamed) == list(reference), seed
            assert ours == theirs, seed

    @pytest.mark.parametrize("max_size", [1, 2, 3])
    @pytest.mark.parametrize("source", sorted(SEEDS))
    def test_a_consumer_that_stops_early_sees_the_same_statistics(
            self, source, max_size):
        for seed, (images, base, summary) in problems(source):
            if seed % 4:
                continue
            total = sum(1 for _ in both(images, base, summary, max_size)[1][0])
            for stop in range(total + 1):
                (streamed, ours), (reference, theirs) = both(
                    images, base, summary, max_size)
                assert (list(islice(streamed, stop))
                        == list(islice(reference, stop))), (seed, stop)
                assert ours == theirs, (seed, stop)

    def test_the_sets_exercise_growth_and_pruning(self):
        """The seeded sets are not degenerate: they emit and prune at
        every size, so equal outputs mean something."""
        emitted_sizes, pruned = set(), 0
        for source in SEEDS:
            for _, (images, base, summary) in problems(source):
                (streamed, ours), _ = both(images, base, summary, 3)
                emitted_sizes.update(len(combo) for combo in streamed)
                pruned += ours.combos_pruned_unsafe
        assert emitted_sizes == {1, 2, 3}
        assert pruned > 0
