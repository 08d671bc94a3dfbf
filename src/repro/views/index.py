"""A persistent signature index over a view catalog's bodies.

A view can only match into a chased query when every relation its body
mentions (at the right arity) appears among the chase's atoms, and every
constant its body pins at a position appears at that position in some
chase atom of the same relation.  For a production catalog of thousands
of LAV views over a wide schema, most views fail that test for any given
query — and the exhaustive strategy still pays a homomorphism search per
view to find out.

:class:`CatalogIndex` holds, for one catalog:

* per view, its **requirement signature** — the set of ``relation/arity``
  keys its body needs, plus its ``(relation, position, constant)``
  pins;
* an inverted ``relation/arity → views`` posting list.

:meth:`CatalogIndex.probe` then takes the chased atom set and returns
exactly the views whose requirements are satisfiable, touching only the
posting lists of relations actually present — views over absent
relations cost nothing.  The probe is sound, never complete: a surviving
view may still have no homomorphism; a pruned view provably has none.

Probing happens against the *chased* atoms, so EGD/FD-implied equalities
from Σ are already applied (key-merged constants are visible at their
merged positions) and coverage a raw-query index would miss is kept.

Each part lives on the object it is derived from.  A view memoises its
own signature (:func:`view_signature`), so catalog versions that share a
view share its signature; a catalog memoises its index
(:meth:`repro.views.view.ViewCatalog.index`) until its next ``add``, so
every rewrite over one catalog version, from any solver, probes one
index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.queries.conjunct import Conjunct
from repro.terms.term import Constant

if TYPE_CHECKING:
    from repro.views.view import View, ViewCatalog

__all__ = ["CatalogIndex", "build_catalog_index", "view_signature"]

#: A relation requirement: ``"REL/arity"`` — arity rides along so a view
#: over a same-named relation of different shape can never survive.
RelationKey = str

#: A constant pin: (relation key, position, constant type, constant repr).
ConstantKey = Tuple[str, int, str, str]

#: A view's requirement signature: its relation keys and constant pins.
Signature = Tuple[FrozenSet[RelationKey], Tuple[ConstantKey, ...]]


def _relation_key(relation: str, arity: int) -> RelationKey:
    return f"{relation}/{arity}"


def _constant_key(relation_key: RelationKey, position: int,
                  constant: Constant) -> ConstantKey:
    # Type name + repr keeps 1 and "1" distinct, mirroring term_signature.
    return (relation_key, position,
            type(constant.value).__name__, repr(constant.value))


class CatalogIndex:
    """The per-catalog signature index; build via :func:`build_catalog_index`."""

    __slots__ = ("view_names", "_required", "_constants", "_postings")

    def __init__(self, view_names: Tuple[str, ...],
                 required: Dict[str, FrozenSet[RelationKey]],
                 constants: Dict[str, Tuple[ConstantKey, ...]],
                 postings: Dict[RelationKey, Tuple[str, ...]]):
        self.view_names = view_names
        self._required = required
        self._constants = constants
        self._postings = postings

    def __len__(self) -> int:
        return len(self.view_names)

    def indexes(self, catalog: ViewCatalog) -> bool:
        """True when this index was built from ``catalog``'s views.

        Compares view names, in order, and each view's memoised
        signature, so an index built before a later ``add`` (or over
        another catalog) is caught instead of silently pruning views.
        """
        if self.view_names != tuple(view.name for view in catalog):
            return False
        return all(view_signature(view) == (self._required[view.name],
                                            self._constants[view.name])
                   for view in catalog)

    def probe(self, chase_atoms: Sequence[Conjunct]) -> Set[str]:
        """Names of the views whose signature the chased atoms satisfy."""
        present: Set[RelationKey] = set()
        pinned: Set[ConstantKey] = set()
        for atom in chase_atoms:
            key = _relation_key(atom.relation, len(atom.terms))
            present.add(key)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    pinned.add(_constant_key(key, position, term))
        # Count posting hits; a view survives when every required
        # relation is present.  Views over absent relations are never
        # visited — the probe's cost scales with the chase, not the
        # catalog.
        hits: Dict[str, int] = {}
        for key in present:
            for name in self._postings.get(key, ()):
                hits[name] = hits.get(name, 0) + 1
        survivors = {
            name for name, count in hits.items()
            if count == len(self._required[name])
        }
        if not survivors:
            return survivors
        return {
            name for name in survivors
            if all(pin in pinned for pin in self._constants[name])
        }


def view_signature(view: View) -> Signature:
    """The relation/arity keys and constant pins of one view's body.

    Memoised on the view, so a view shared by many catalog versions is
    signed once.  Racing first builds store equal signatures.
    """
    if view._signature is None:
        keys: Set[RelationKey] = set()
        pins: List[ConstantKey] = []
        for atom in view.definition.conjuncts:
            key = _relation_key(atom.relation, len(atom.terms))
            keys.add(key)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    pins.append(_constant_key(key, position, term))
        view._signature = (frozenset(keys), tuple(pins))
    return view._signature


def build_catalog_index(catalog: ViewCatalog) -> CatalogIndex:
    """Index every view body's relation/arity/constant signature."""
    required: Dict[str, FrozenSet[RelationKey]] = {}
    constants: Dict[str, Tuple[ConstantKey, ...]] = {}
    postings: Dict[RelationKey, List[str]] = {}
    for view in catalog:
        keys, pins = view_signature(view)
        required[view.name] = keys
        constants[view.name] = pins
        for key in keys:
            postings.setdefault(key, []).append(view.name)
    return CatalogIndex(
        tuple(required), required, constants,
        {key: tuple(view_names) for key, view_names in postings.items()})
