"""Random (seeded) embedded-dependency generation.

Two families matter for exercising the general-Σ containment path:

* **weakly-acyclic TGD/EGD sets** — acyclicity is guaranteed *by
  construction*: the schema's relations are ordered, every TGD's body
  uses only relations strictly below its head's relation, so every edge
  of the dependency position graph increases the relation index and no
  cycle (existential or otherwise) can form.  These sets chase to
  saturation and yield exact containment verdicts;
* **IND-expressible pairs** — a weakly-acyclic IND set together with its
  :meth:`~repro.dependencies.inclusion.InclusionDependency.as_tgd`
  normalization, used to certify that the TGD chase rule and the native
  IND rule produce identical verdicts (and by the embedded-chase
  benchmark to compare the two encodings).

Every generated set passes :func:`repro.chase.termination.analyse_termination`
with ``weakly_acyclic=True``, which the unit tests assert.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.embedded import EGD, TGD
from repro.dependencies.inclusion import InclusionDependency
from repro.queries.conjunct import Conjunct
from repro.relational.schema import DatabaseSchema
from repro.terms.term import Variable


class EmbeddedDependencyGenerator:
    """Generates weakly-acyclic TGD/EGD sets over a given schema."""

    def __init__(self, schema: DatabaseSchema, seed: int = 0):
        if len(list(schema)) < 2:
            raise ValueError(
                "embedded-dependency generation needs at least two relations")
        self._schema = schema
        self._rng = random.Random(seed)
        self._relations = list(schema)

    # -- single rules ------------------------------------------------------------

    def random_tgd(self, max_body_atoms: int = 2) -> TGD:
        """One layered TGD: body relations strictly below the head relation.

        Body variables are drawn from a shared pool so multi-atom bodies
        join; each head column holds a frontier variable or a fresh
        existential one (at least one of each where arities permit).
        """
        head_index = self._rng.randrange(1, len(self._relations))
        head_relation = self._relations[head_index]
        body_count = self._rng.randint(1, max(1, min(max_body_atoms, head_index)))
        body_relations = [self._relations[i] for i in
                          sorted(self._rng.sample(range(head_index), body_count))]

        pool_size = max(2, max(r.arity for r in body_relations))
        pool = [Variable(f"x{i + 1}") for i in range(pool_size)]
        body: List[Conjunct] = []
        used: List[Variable] = []
        for relation in body_relations:
            terms = [self._rng.choice(pool) for _ in range(relation.arity)]
            body.append(Conjunct(relation.name, terms))
            used.extend(term for term in terms if term not in used)

        head_terms: List[Variable] = []
        existential_count = 0
        for column in range(head_relation.arity):
            # Keep the last column existential so the TGD is never full
            # by accident (full TGDs are legal but exercise less).
            make_existential = (column == head_relation.arity - 1
                                or self._rng.random() < 0.4)
            if make_existential:
                existential_count += 1
                head_terms.append(Variable(f"z{existential_count}"))
            else:
                head_terms.append(self._rng.choice(used))
        return TGD(body, [Conjunct(head_relation.name, head_terms)])

    def random_egd(self) -> EGD:
        """One FD-shaped EGD on a random relation of arity at least two."""
        candidates = [r for r in self._relations if r.arity >= 2]
        if not candidates:
            raise ValueError("an EGD needs a relation of arity >= 2")
        relation = self._rng.choice(candidates)
        key_column = self._rng.randrange(relation.arity)
        value_column = self._rng.choice(
            [c for c in range(relation.arity) if c != key_column])
        first = [Variable(f"x{i + 1}") for i in range(relation.arity)]
        second = [first[i] if i == key_column else Variable(f"y{i + 1}")
                  for i in range(relation.arity)]
        return EGD([Conjunct(relation.name, first), Conjunct(relation.name, second)],
                   first[value_column], second[value_column])

    # -- sets --------------------------------------------------------------------

    def weakly_acyclic(self, tgd_count: int, egd_count: int = 0,
                       max_body_atoms: int = 2) -> DependencySet:
        """``tgd_count`` layered TGDs plus ``egd_count`` EGDs (one Σ).

        Weakly acyclic by construction; duplicates are skipped, so very
        small schemas may yield fewer rules than asked.
        """
        dependencies = DependencySet(schema=self._schema)
        attempts = 0
        while (len(dependencies.tgds()) < tgd_count
               and attempts < max(tgd_count, 1) * 50):
            attempts += 1
            dependencies.add(self.random_tgd(max_body_atoms=max_body_atoms))
        attempts = 0
        while (len(dependencies.egds()) < egd_count
               and attempts < max(egd_count, 1) * 50):
            attempts += 1
            dependencies.add(self.random_egd())
        return dependencies

    def ind_expressible(self, count: int,
                        max_width: int = 2) -> Tuple[DependencySet, DependencySet]:
        """A weakly-acyclic IND set and its TGD normalization, as a pair.

        INDs point from lower-indexed relations to strictly higher ones,
        so the position graph is layered exactly like
        :meth:`weakly_acyclic`; the second element is the same Σ with
        every IND rewritten by ``as_tgd``.  The two express identical
        constraints, which the equivalence tests and the embedded-chase
        benchmark rely on.
        """
        inds = DependencySet(schema=self._schema)
        attempts = 0
        while len(inds) < count and attempts < max(count, 1) * 50:
            attempts += 1
            source_index = self._rng.randrange(len(self._relations) - 1)
            target_index = self._rng.randrange(source_index + 1, len(self._relations))
            source = self._relations[source_index]
            target = self._relations[target_index]
            width = self._rng.randint(1, max(1, min(max_width, source.arity,
                                                    target.arity)))
            lhs = self._rng.sample(range(1, source.arity + 1), width)
            rhs = self._rng.sample(range(1, target.arity + 1), width)
            inds.add(InclusionDependency(source.name, lhs, target.name, rhs))
        return inds, inds.normalized_embedded(self._schema)
