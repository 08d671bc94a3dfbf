"""Materialized views: named conjunctive queries over a base schema.

A :class:`View` is a conjunctive query with a name; the name doubles as a
derived relation whose columns are the view's head variables.  A
:class:`ViewCatalog` is an ordered collection of views over one base
schema; it exposes the *extended schema* (base relations plus one relation
per view) that rewritings are written against, the signature index the
bucketed rewriter probes, and a stable content fingerprint used by the
solver's rewrite cache.

Each derived part lives on the object it is derived from and is built on
first use: a view memoises its relation schema, index signature and
fingerprint, a catalog its extended schema, index, fingerprint and
default chase depth for view matching.
Catalog versions that share a view therefore share that view's parts.

Views are restricted to heads of pairwise distinct distinguished
variables.  This loses no generality for rewriting (a constant or repeated
column in a view head can always be pushed into the body of the queries
using the view) and keeps unfolding a pure substitution: expanding
``V(t1, ..., tk)`` maps the i-th head variable to ``t_i`` and freshens the
body's existential variables.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import repro.views.index
from repro.exceptions import ViewError
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.terms.term import DistinguishedVariable, Variable


class View:
    """One named view ``V(x1, ..., xk) :- body`` over the base schema."""

    #: Memos of :func:`~repro.api.fingerprints.view_fingerprint`,
    #: :meth:`relation_schema` and
    #: :func:`~repro.views.index.view_signature`; a view never changes,
    #: so they are never cleared.  Class attributes so views pickled
    #: before a memo existed unpickle without it and build it on first
    #: use.
    _fingerprint: Optional[str] = None
    _relation_schema: Optional[RelationSchema] = None
    _signature: Optional[Tuple] = None

    def __init__(self, name: str, definition: ConjunctiveQuery):
        if not name:
            raise ViewError("a view must have a name")
        self._name = name
        self._definition = definition
        self._validate()

    def _validate(self) -> None:
        seen = set()
        for entry in self._definition.summary_row:
            if not isinstance(entry, DistinguishedVariable):
                raise ViewError(
                    f"view {self._name!r} has head entry {entry}; view heads "
                    "must consist of distinguished variables"
                )
            if entry in seen:
                raise ViewError(
                    f"view {self._name!r} repeats head variable {entry}; "
                    "view head variables must be pairwise distinct"
                )
            seen.add(entry)

    # -- accessors ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def definition(self) -> ConjunctiveQuery:
        """The defining conjunctive query, over the base schema."""
        return self._definition

    @property
    def head(self) -> Tuple[DistinguishedVariable, ...]:
        """The head variables, in output order."""
        return self._definition.summary_row  # type: ignore[return-value]

    @property
    def arity(self) -> int:
        return self._definition.output_arity

    @property
    def base_schema(self) -> DatabaseSchema:
        return self._definition.input_schema

    def existential_variables(self) -> List[Variable]:
        """Body variables projected away by the head, in a stable order."""
        head = set(self.head)
        seen: Dict[Variable, None] = {}
        for conjunct in self._definition.conjuncts:
            for term in conjunct.terms:
                if isinstance(term, Variable) and term not in head:
                    seen.setdefault(term, None)
        return list(seen)

    def relation_schema(self) -> RelationSchema:
        """The derived relation this view contributes to the extended schema.

        Columns are named after the head variables, which the head
        restriction guarantees are distinct.  Memoised: every catalog
        holding this view shares one (frozen) relation schema.
        """
        if self._relation_schema is None:
            self._relation_schema = RelationSchema(
                self._name, [variable.name for variable in self.head])
        return self._relation_schema

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self._name == other._name and self._definition == other._definition

    def __hash__(self) -> int:
        return hash((self._name, self._definition))

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.head)
        body = ", ".join(str(c) for c in self._definition.conjuncts)
        return f"{self._name}({head}) :- {body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<View {self}>"


class ViewCatalog:
    """An ordered, name-keyed collection of views over one base schema."""

    #: Memos of :func:`~repro.api.fingerprints.catalog_fingerprint`,
    #: :meth:`extended_schema`, :meth:`index` and
    #: :func:`~repro.views.rewriting.match_level`, cleared by :meth:`add`.
    #: Class attributes for the same reason as :attr:`View._fingerprint`.
    _fingerprint: Optional[str] = None
    _extended_schema: Optional[DatabaseSchema] = None
    _index: Optional["repro.views.index.CatalogIndex"] = None
    _match_level: Optional[int] = None

    def __init__(self, views: Optional[Iterable[View]] = None,
                 schema: Optional[DatabaseSchema] = None):
        self._schema = schema
        self._views: Dict[str, View] = {}
        for view in views or ():
            self.add(view)

    # -- construction ------------------------------------------------------

    def add(self, view: View) -> "ViewCatalog":
        """Add one view; names must be fresh w.r.t. the base schema and catalog."""
        if self._schema is None:
            self._schema = view.base_schema
        elif view.base_schema != self._schema:
            raise ViewError(
                f"view {view.name!r} is defined over a different base schema "
                "than the catalog"
            )
        if view.name in self._schema:
            raise ViewError(
                f"view name {view.name!r} collides with a base relation")
        if view.name in self._views:
            raise ViewError(f"duplicate view name {view.name!r} in catalog")
        self._views[view.name] = view
        self._fingerprint = None
        self._extended_schema = None
        self._index = None
        self._match_level = None
        return self

    # -- container protocol ------------------------------------------------

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def get(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"catalog has no view named {name!r}") from None

    def names(self) -> List[str]:
        """View names, in insertion order."""
        return list(self._views)

    @property
    def base_schema(self) -> Optional[DatabaseSchema]:
        return self._schema

    def is_view(self, relation_name: str) -> bool:
        """True if ``relation_name`` names a view of this catalog."""
        return relation_name in self._views

    # -- derived schemas ---------------------------------------------------

    def extended_schema(self) -> DatabaseSchema:
        """Base relations plus one derived relation per view.

        Candidate rewritings are conjunctive queries over this schema;
        expansion maps them back to the base schema.  It is built on
        first use and memoised until :meth:`add`, so every rewrite over
        a catalog shares one schema object: callers must not mutate it.
        Racing first builds store equal schemas.
        """
        if self._extended_schema is None:
            if self._schema is None:
                raise ViewError(
                    "an empty catalog with no schema has no extended schema")
            extended = DatabaseSchema(list(self._schema))
            for view in self._views.values():
                extended.add(view.relation_schema())
            self._extended_schema = extended
        return self._extended_schema

    def index(self) -> "repro.views.index.CatalogIndex":
        """The signature index the bucketed rewriter probes.

        Built on first use by :func:`repro.views.index.build_catalog_index`
        (looked up at call time, so a wrapper installed on it sees every
        build) and memoised until :meth:`add`, like :meth:`extended_schema`.
        """
        if self._index is None:
            self._index = repro.views.index.build_catalog_index(self)
        return self._index

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        lines = [f"view catalog with {len(self)} view(s):"]
        for view in self._views.values():
            lines.append(f"  {view}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViewCatalog({', '.join(self._views)})"
