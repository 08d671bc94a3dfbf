"""Canonical fingerprints for queries and schemas.

The solver's cross-call caches need keys that are (a) stable across
processes, (b) insensitive to incidental object identity, and (c) exactly
as fine-grained as query equality: two :class:`ConjunctiveQuery` objects
that compare equal (same schema, same summary row, same *set* of labelled
conjuncts — conjunct order is immaterial) must fingerprint identically,
and unequal queries must not collide in practice.

Terms are rendered with a kind tag so a constant ``"x"``, a distinguished
variable ``x``, and a nondistinguished variable ``x`` stay distinct.

The schema part is :meth:`DatabaseSchema.signature_text`, which owns
its format and memoises it on the schema object: a tenant's schema is
shared by all of its requests, so it is rendered once, not once per
fingerprint.  A view and a catalog memoise their own digests the same
way, so a catalog version that shares most views with the previous one
digests only its new views.  The schema text lists relations in
insertion order while schema equality ignores the order, so equal
queries over reordered schemas fingerprint differently, a gap in (c)
that costs cache hits, never a wrong answer.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.dependencies.dependency_set import DependencySet
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Term


def term_signature(term: Term) -> str:
    if isinstance(term, Constant):
        return f"c:{type(term.value).__name__}:{term.value!r}"
    if isinstance(term, DistinguishedVariable):
        return f"dv:{term.name}"
    if isinstance(term, NonDistinguishedVariable):
        return f"ndv:{term.name}:{term.serial!r}:{term.created}"
    return f"t:{term!r}"


def conjunct_signature(conjunct: Conjunct) -> str:
    terms = ",".join(term_signature(term) for term in conjunct.terms)
    return f"{conjunct.label}|{conjunct.relation}({terms})"


def schema_signature(schema: Optional[DatabaseSchema]) -> str:
    """The schema part of every fingerprint; ``"-"`` for no schema."""
    if schema is None:
        return "-"
    return schema.signature_text()


def schema_fingerprint(schema: Optional[DatabaseSchema]) -> str:
    """A stable digest of a schema's relations and attribute names.

    Together with :func:`dependency_fingerprint` this identifies a
    *tenant* for the service layer's shard routing: requests over the
    same (schema, Σ) land on the same shard, whose caches stay hot for
    exactly that tenant's chases and answers.
    """
    return hashlib.sha256(schema_signature(schema).encode("utf-8")).hexdigest()


def query_fingerprint(query: ConjunctiveQuery) -> str:
    """A stable digest of a query's content (name-insensitive).

    The display name is excluded (renaming a query does not change what it
    computes); everything equality looks at is included, with conjuncts
    sorted so insertion order cannot split the cache.
    """
    payload = "\n".join((
        schema_signature(query.input_schema),
        ",".join(term_signature(term) for term in query.summary_row),
        "\n".join(sorted(conjunct_signature(c) for c in query.conjuncts)),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dependency_fingerprint(dependencies: Optional[DependencySet]) -> str:
    """Fingerprint of Σ; the empty / absent set has a fixed digest."""
    if dependencies is None:
        return DependencySet().fingerprint()
    return dependencies.fingerprint()


def view_fingerprint(view) -> str:
    """Digest of one view: its name plus its defining query's content.

    The name is included — unlike a query's display name it is semantic,
    because rewritings contain atoms over it.  Memoised on the view, so
    a view shared by many catalog versions is digested once.
    """
    if view._fingerprint is None:
        payload = f"{view.name}\n{query_fingerprint(view.definition)}"
        view._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return view._fingerprint


def catalog_fingerprint(catalog) -> str:
    """Digest of a view catalog (insertion-order insensitive).

    Keys the solver's rewrite cache together with the query and Σ
    fingerprints; two catalogs holding the same views over the same base
    schema fingerprint identically.  Memoised on the catalog until its
    next ``add``, so a rewrite by fingerprint reads it instead of
    digesting every view.  Racing first digests store the same string.
    """
    if catalog._fingerprint is None:
        payload = "\n".join((
            schema_signature(catalog.base_schema),
            "\n".join(sorted(view_fingerprint(view) for view in catalog)),
        ))
        catalog._fingerprint = hashlib.sha256(
            payload.encode("utf-8")).hexdigest()
    return catalog._fingerprint
