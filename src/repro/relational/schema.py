"""Relation and database schemas.

A relation scheme is the ordered sequence of attributes labelling a
relation's columns; a database scheme is a named collection of relation
schemes.  Both inclusion dependencies and conjunctive queries refer to
attributes either by name or by 1-based position (the paper's Figure 1
writes ``R[1,3] ⊆ S[1,2]``), so the schema classes support both addressing
modes and translate between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import SchemaError
from repro.relational.attribute import Attribute, AttributeSpec, coerce_attributes

AttributeRef = Union[str, int]

#: The delimiters of :meth:`DatabaseSchema.signature_text`.  A name
#: containing one could make two different schemas render the same text
#: (``R(a,b)`` for one attribute ``a,b`` and for ``a`` then ``b``), and
#: fingerprints and the dependency set's memos key on that text.
_SIGNATURE_DELIMITERS = frozenset("(),;")


@dataclass(frozen=True)
class RelationSchema:
    """The scheme of one relation: a name plus an ordered attribute list."""

    name: str
    attributes: Tuple[Attribute, ...]

    def __init__(self, name: str, attributes: Sequence[AttributeSpec]):
        if not name:
            raise SchemaError("relation name must be non-empty")
        attrs = coerce_attributes(attributes)
        if len(attrs) == 0:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names: {names}")
        for label in (name, *names):
            if not _SIGNATURE_DELIMITERS.isdisjoint(label):
                raise SchemaError(
                    f"relation {name!r}: name {label!r} contains one of "
                    "'(', ')', ',' or ';'")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    # -- basic accessors ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def __len__(self) -> int:
        return self.arity

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __str__(self) -> str:
        cols = ", ".join(self.attribute_names)
        return f"{self.name}({cols})"

    # -- attribute addressing ------------------------------------------------

    def position_of(self, ref: AttributeRef) -> int:
        """Return the 0-based column index of an attribute reference.

        ``ref`` may be an attribute name or a 1-based position (the paper's
        convention when attributes are written as numbers).
        """
        if isinstance(ref, int):
            if not 1 <= ref <= self.arity:
                raise SchemaError(
                    f"position {ref} out of range for relation {self.name!r} "
                    f"of arity {self.arity}"
                )
            return ref - 1
        for index, attribute in enumerate(self.attributes):
            if attribute.name == ref:
                return index
        raise SchemaError(f"relation {self.name!r} has no attribute {ref!r}")

    def positions_of(self, refs: Sequence[AttributeRef]) -> Tuple[int, ...]:
        """Column indexes for a sequence of attribute references."""
        return tuple(self.position_of(ref) for ref in refs)

    def attribute_at(self, position: int) -> Attribute:
        """The attribute labelling 0-based column ``position``."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"column {position} out of range for relation {self.name!r}"
            )
        return self.attributes[position]

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    def attribute_name_at(self, position: int) -> str:
        return self.attribute_at(position).name

    # -- validation -----------------------------------------------------------

    def validate_row(self, row: Sequence[object], check_domains: bool = False) -> Tuple[object, ...]:
        """Check arity (and optionally domains) of a candidate row."""
        values = tuple(row)
        if len(values) != self.arity:
            raise SchemaError(
                f"row {values!r} has arity {len(values)}, expected {self.arity} "
                f"for relation {self.name!r}"
            )
        if check_domains:
            for attribute, value in zip(self.attributes, values):
                if not attribute.accepts(value):
                    raise SchemaError(
                        f"value {value!r} not in domain of {self.name}.{attribute.name}"
                    )
        return values


class DatabaseSchema:
    """A named collection of relation schemas.

    Iteration order is the insertion order of relations, which keeps chase
    construction and report output deterministic.
    """

    #: Memo of :meth:`signature_text`, cleared by :meth:`add`.  A class
    #: attribute so schemas pickled before the memo existed (persistent
    #: cache entries, process-shard payloads) unpickle without it and
    #: render on first use.
    _signature_text: Optional[str] = None

    def __init__(self, relations: Optional[Iterable[RelationSchema]] = None):
        self._relations: Dict[str, RelationSchema] = {}
        for schema in relations or ():
            self.add(schema)

    # -- construction ----------------------------------------------------------

    def add(self, schema: RelationSchema) -> "DatabaseSchema":
        """Add a relation schema; names must be unique."""
        if schema.name in self._relations:
            raise SchemaError(f"duplicate relation name {schema.name!r} in database schema")
        self._relations[schema.name] = schema
        self._signature_text = None
        return self

    def add_relation(self, name: str, attributes: Sequence[AttributeSpec]) -> RelationSchema:
        """Create and add a relation schema in one step."""
        schema = RelationSchema(name, attributes)
        self.add(schema)
        return schema

    @classmethod
    def from_dict(cls, spec: Mapping[str, Sequence[AttributeSpec]]) -> "DatabaseSchema":
        """Build a schema from ``{relation_name: [attribute, ...]}``."""
        schema = cls()
        for name, attributes in spec.items():
            schema.add_relation(name, attributes)
        return schema

    # -- accessors ---------------------------------------------------------------

    def relation(self, name: str) -> RelationSchema:
        """Look up one relation schema by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"database schema has no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(str(r) for r in self)
        return f"DatabaseSchema({body})"

    @property
    def relation_names(self) -> List[str]:
        return list(self._relations)

    def signature(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """A hashable content projection of the schema.

        Two schemas whose relations have the same names and attribute
        names (in order) share a signature.  Each call walks every
        relation, so content-addressed caches (fingerprints, dependency
        classification and validation, the compiled chase plan) key on
        the memoised :meth:`signature_text` instead, which renders this
        tuple once.
        """
        return tuple(
            (relation.name, relation.attribute_names) for relation in self)

    def signature_text(self) -> str:
        """The signature's canonical text: ``name(attr,…)`` joined by ``;``.

        Relations appear in insertion order.  Every fingerprint in
        :mod:`repro.api.fingerprints` embeds this text, so changing the
        format changes every stored cache key, and the dependency set
        keys its per-schema memos on it.  Names cannot contain the
        delimiters ``(``, ``)``, ``,`` or ``;``, so the text tells
        schemas apart exactly as :meth:`signature` does.  It is rendered
        on first use and memoised until :meth:`add`; the service's
        tenant parser hands every request of a tenant the same schema,
        so each tenant is rendered once.  Racing first renders store the
        same immutable string; a schema must not be mutated while it is
        shared.
        """
        if self._signature_text is None:
            self._signature_text = ";".join(
                f"{name}({','.join(attributes)})"
                for name, attributes in self.signature())
        return self._signature_text

    def restricted_to(self, names: Iterable[str]) -> "DatabaseSchema":
        """A new schema containing only the listed relations."""
        return DatabaseSchema(self.relation(name) for name in names)

    def merged_with(self, other: "DatabaseSchema") -> "DatabaseSchema":
        """Union of two schemas; shared names must agree exactly."""
        merged = DatabaseSchema(list(self))
        for schema in other:
            if schema.name in merged._relations:
                if merged.relation(schema.name) != schema:
                    raise SchemaError(
                        f"conflicting definitions of relation {schema.name!r}"
                    )
                continue
            merged.add(schema)
        return merged
