"""Dependency sets and their classification.

The containment procedures of Section 3 dispatch on the *shape* of the
dependency set Σ:

* Σ empty — classical Chandra–Merlin containment;
* Σ contains only FDs — the classical finite chase;
* Σ contains only INDs — Theorem 2(i);
* Σ key-based — Theorem 2(ii);
* anything else — outside the paper's decidable cases (the procedure is
  still exposed as a sound semi-decision, which becomes *exact* whenever
  the weak-acyclicity analysis certifies that the chase terminates).

Beyond the paper's FDs and INDs a set may contain general *embedded*
dependencies — :class:`~repro.dependencies.embedded.TGD` and
:class:`~repro.dependencies.embedded.EGD` rules with arbitrary CQ bodies
and heads — of which FDs and INDs are the classical special cases
(:meth:`normalized_embedded` performs the FD→EGD / IND→TGD rewriting).

:class:`DependencySet` stores the dependencies, validates them against a
schema, computes the maximum IND width W, determines keys, and implements
the key-based test exactly as defined in Section 2.

A served tenant is one schema and one Σ shared by many requests, and
none of these facts depends on a query.  So the set memoises them: its
class, its validation and the chase engine's compiled plan per schema,
keyed on the schema's memoised
:meth:`~repro.relational.schema.DatabaseSchema.signature_text` (a string
that caches its hash, so a lookup costs no walk over the relations),
and W on the set itself.  :meth:`DependencySet.add` clears them all.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    TypeVar,
    Union,
)

from repro.exceptions import DependencyError
from repro.dependencies.embedded import EGD, TGD
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.relational.schema import DatabaseSchema

Dependency = Union[FunctionalDependency, InclusionDependency, TGD, EGD]

#: The concrete classes a DependencySet accepts.
DEPENDENCY_TYPES = (FunctionalDependency, InclusionDependency, TGD, EGD)

_Compiled = TypeVar("_Compiled")


class DependencyClass(Enum):
    """The shapes of Σ the containment dispatcher distinguishes.

    The first four are the paper's decidable cases; ``GENERAL`` is an
    FD/IND set outside them, and ``EMBEDDED`` is a set containing at
    least one TGD or EGD.  Both of the last two take the bounded-chase
    semi-decision path (exact when the chase provably terminates).
    """

    EMPTY = "empty"
    FD_ONLY = "fd-only"
    IND_ONLY = "ind-only"
    KEY_BASED = "key-based"
    GENERAL = "general"
    EMBEDDED = "embedded"


class DependencySet:
    """An ordered, duplicate-free collection of FDs and INDs.

    Iteration order is insertion order, which the chase uses for its
    "lexicographically first dependency" tie-breaking, so two runs over the
    same DependencySet produce identical chases.
    """

    #: Memo of :meth:`max_width`, cleared by :meth:`add`.  A class
    #: attribute so sets pickled before the memo existed (persistent
    #: cache entries, process-shard payloads) unpickle without it and
    #: compute W on first use.
    _max_width: Optional[int] = None

    def __init__(self, dependencies: Optional[Iterable[Dependency]] = None,
                 schema: Optional[DatabaseSchema] = None):
        self._dependencies: List[Dependency] = []
        self._seen: Set[Dependency] = set()
        self._schema = schema
        self._classify_cache: Dict[Optional[str], DependencyClass] = {}
        self._validated_signatures: Set[str] = set()
        self._compiled: Dict[str, object] = {}
        self._fingerprint: Optional[str] = None
        for dependency in dependencies or ():
            self.add(dependency)

    # -- construction -------------------------------------------------------------

    def add(self, dependency: Dependency) -> "DependencySet":
        """Add one dependency (duplicates are ignored)."""
        if not isinstance(dependency, DEPENDENCY_TYPES):
            raise DependencyError(
                "expected a FunctionalDependency, InclusionDependency, TGD, "
                f"or EGD, got {dependency!r}"
            )
        if dependency not in self._seen:
            if self._schema is not None:
                dependency.validate(self._schema)
            self._dependencies.append(dependency)
            self._seen.add(dependency)
            self._classify_cache.clear()
            self._validated_signatures.clear()
            self._compiled.clear()
            self._fingerprint = None
            self._max_width = None
        return self

    def union(self, other: "DependencySet") -> "DependencySet":
        """A new set containing the dependencies of both."""
        merged = DependencySet(self._dependencies, schema=self._schema or other._schema)
        for dependency in other:
            merged.add(dependency)
        return merged

    @classmethod
    def empty(cls, schema: Optional[DatabaseSchema] = None) -> "DependencySet":
        return cls(schema=schema)

    # -- container protocol ---------------------------------------------------------

    def __iter__(self) -> Iterator[Dependency]:
        return iter(self._dependencies)

    def __len__(self) -> int:
        return len(self._dependencies)

    def __contains__(self, dependency: Dependency) -> bool:
        return dependency in self._seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencySet):
            return NotImplemented
        return set(self._dependencies) == set(other._dependencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependencySet({', '.join(str(d) for d in self._dependencies)})"

    @property
    def schema(self) -> Optional[DatabaseSchema]:
        return self._schema

    # -- views -------------------------------------------------------------------------

    def functional_dependencies(self) -> List[FunctionalDependency]:
        """Σ[F]: the FDs, in insertion order."""
        return [d for d in self._dependencies if isinstance(d, FunctionalDependency)]

    def inclusion_dependencies(self) -> List[InclusionDependency]:
        """Σ[I]: the INDs, in insertion order."""
        return [d for d in self._dependencies if isinstance(d, InclusionDependency)]

    def tgds(self) -> List[TGD]:
        """The general tuple-generating dependencies, in insertion order."""
        return [d for d in self._dependencies if isinstance(d, TGD)]

    def egds(self) -> List[EGD]:
        """The general equality-generating dependencies, in insertion order."""
        return [d for d in self._dependencies if isinstance(d, EGD)]

    def embedded_dependencies(self) -> List[Union[TGD, EGD]]:
        """The TGDs and EGDs, in insertion order."""
        return [d for d in self._dependencies if isinstance(d, (TGD, EGD))]

    def has_embedded(self) -> bool:
        """True when Σ contains at least one general TGD or EGD."""
        return any(isinstance(d, (TGD, EGD)) for d in self._dependencies)

    def fds_for(self, relation: str) -> List[FunctionalDependency]:
        return [d for d in self.functional_dependencies() if d.relation == relation]

    def inds_from(self, relation: str) -> List[InclusionDependency]:
        """INDs whose left-hand side lives in ``relation``."""
        return [d for d in self.inclusion_dependencies() if d.lhs_relation == relation]

    def inds_into(self, relation: str) -> List[InclusionDependency]:
        """INDs whose right-hand side lives in ``relation``."""
        return [d for d in self.inclusion_dependencies() if d.rhs_relation == relation]

    def fd_part(self) -> "DependencySet":
        """The sub-set Σ[F] as a DependencySet."""
        return DependencySet(self.functional_dependencies(), schema=self._schema)

    def ind_part(self) -> "DependencySet":
        """The sub-set Σ[I] as a DependencySet."""
        return DependencySet(self.inclusion_dependencies(), schema=self._schema)

    # -- sizes ----------------------------------------------------------------------------

    def max_ind_width(self) -> int:
        """W: the maximum width of an IND in Σ (0 if Σ has no INDs)."""
        widths = [d.width for d in self.inclusion_dependencies()]
        return max(widths) if widths else 0

    def max_width(self) -> int:
        """W generalised to embedded Σ: IND widths and TGD frontier sizes.

        For FD/IND-only sets this equals :meth:`max_ind_width` (so the
        Theorem 2 level bound is unchanged on the paper's classes); a
        TGD contributes the size of its frontier, the variables whose
        values the chase copies into created conjuncts.  Every chase reads
        W for its level bound, so it is memoised until :meth:`add`.
        """
        if self._max_width is None:
            self._max_width = max(
                (d.width for d in self._dependencies
                 if isinstance(d, (InclusionDependency, TGD))), default=0)
        return self._max_width

    def size(self) -> int:
        """|Σ|: the number of dependencies."""
        return len(self._dependencies)

    # -- identity -----------------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable content hash of Σ, usable as a cache key.

        Two DependencySets that compare equal (same dependencies, in any
        insertion order) have the same fingerprint; the digest is stable
        across processes, so it can key on-disk or cross-service caches.
        Mutating the set via :meth:`add` invalidates the memoised value.
        """
        if self._fingerprint is None:
            lines = sorted(
                f"{type(dependency).__name__}|{dependency}"
                for dependency in self._dependencies
            )
            digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- validation ---------------------------------------------------------------------------

    def validate(self, schema: Optional[DatabaseSchema] = None) -> None:
        """Check every dependency against a schema.

        Validation is pure in (Σ, schema content), so the result is
        memoised on the schema's :meth:`~DatabaseSchema.signature_text`;
        :meth:`add` invalidates the memo.  Chase engines validate on
        construction, so repeated chases over the same Σ (containment
        tests run one per CQ pair, benchmarks run hundreds) pay the
        per-dependency arity walk once.
        """
        target = schema or self._schema
        if target is None:
            raise DependencyError("no schema available to validate against")
        self._validate_signature(target, target.signature_text())

    def _validate_signature(self, schema: DatabaseSchema,
                            signature: str) -> None:
        if signature in self._validated_signatures:
            return
        for dependency in self._dependencies:
            dependency.validate(schema)
        self._validated_signatures.add(signature)

    def compiled(self, schema: DatabaseSchema,
                 compiler: Callable[["DependencySet", DatabaseSchema], _Compiled]
                 ) -> _Compiled:
        """Σ validated against ``schema`` and compiled by ``compiler``.

        The chase engine's plan depends only on (Σ, schema content), so
        like :meth:`validate` and :meth:`classify` it is memoised on the
        schema's :meth:`~DatabaseSchema.signature_text` and :meth:`add`
        drops it.  The memo holds one compiled object per signature, so
        every caller must pass the same ``compiler``; the result is
        shared by concurrent chases over this Σ and must never be
        mutated.
        """
        signature = schema.signature_text()
        plan = self._compiled.get(signature)
        if plan is None:
            self._validate_signature(schema, signature)
            plan = self._compiled[signature] = compiler(self, schema)
        return plan  # type: ignore[return-value]

    # -- classification ----------------------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._dependencies

    def is_fd_only(self) -> bool:
        return (bool(self._dependencies)
                and all(isinstance(d, FunctionalDependency) for d in self._dependencies))

    def is_ind_only(self) -> bool:
        return (bool(self._dependencies)
                and all(isinstance(d, InclusionDependency) for d in self._dependencies))

    def has_only_unary_inds(self) -> bool:
        """True if every IND has width 1 (Theorem 3(i) requires this)."""
        return all(d.is_unary for d in self.inclusion_dependencies())

    def key_of(self, relation: str, schema: Optional[DatabaseSchema] = None) -> Optional[FrozenSet[str]]:
        """The common FD left-hand side for ``relation``, as attribute names.

        Returns ``None`` when the relation has no FDs, and raises
        DependencyError when its FDs do not share one left-hand side (in
        which case Σ cannot be key-based).
        """
        target = schema or self._schema
        if target is None:
            raise DependencyError("a schema is required to resolve attribute names")
        fds = self.fds_for(relation)
        if not fds:
            return None
        lhs_sets = {fd.lhs_names(target) for fd in fds}
        if len(lhs_sets) != 1:
            raise DependencyError(
                f"relation {relation!r} has FDs with different left-hand sides; "
                "the set is not key-based"
            )
        return next(iter(lhs_sets))

    def is_key_based(self, schema: Optional[DatabaseSchema] = None) -> bool:
        """The paper's key-based test (Section 2, conditions (a) and (b)).

        (a) For each relation R with FDs, all FDs of R share one left-hand
        side Z, and every attribute of R outside Z is the right-hand side of
        some FD of R (so Z is a key of R).

        (b) Every IND ``R[X] ⊆ S[Y]`` has Y contained in the key of S (so S
        must have FDs) and X disjoint from the key of R (vacuously true when
        R has no FDs).
        """
        target = schema or self._schema
        if target is None:
            raise DependencyError("a schema is required for the key-based test")
        if not self._dependencies:
            return False

        # Condition (a): shared left-hand sides covering all non-key attributes.
        keys: Dict[str, FrozenSet[str]] = {}
        for relation_name in {fd.relation for fd in self.functional_dependencies()}:
            try:
                key = self.key_of(relation_name, target)
            except DependencyError:
                return False
            assert key is not None
            keys[relation_name] = key
            relation = target.relation(relation_name)
            covered = {fd.rhs_name(target) for fd in self.fds_for(relation_name)}
            for attribute in relation.attribute_names:
                if attribute not in key and attribute not in covered:
                    return False

        # Condition (b): IND right-hand sides inside target keys, left-hand
        # sides disjoint from source keys.
        for ind in self.inclusion_dependencies():
            target_key = keys.get(ind.rhs_relation)
            if target_key is None:
                return False
            if not ind.rhs_names(target) <= target_key:
                return False
            source_key = keys.get(ind.lhs_relation)
            if source_key is not None and ind.lhs_names(target) & source_key:
                return False
        return True

    def classify(self, schema: Optional[DatabaseSchema] = None) -> DependencyClass:
        """Which of the paper's cases Σ falls into.

        The answer depends only on the dependencies and the schema's
        content, so it is memoised on the schema's
        :meth:`~DatabaseSchema.signature_text`: a frozen Σ re-used across
        many containment calls is classified once.  The cache is
        invalidated whenever :meth:`add` changes the set.
        """
        target = schema or self._schema
        key = target.signature_text() if target is not None else None
        cached = self._classify_cache.get(key)
        if cached is not None:
            return cached
        classification = self._classify_uncached(target)
        self._classify_cache[key] = classification
        return classification

    def _classify_uncached(self, target: Optional[DatabaseSchema]) -> DependencyClass:
        if self.is_empty():
            return DependencyClass.EMPTY
        if self.has_embedded():
            return DependencyClass.EMBEDDED
        if self.is_fd_only():
            return DependencyClass.FD_ONLY
        if self.is_ind_only():
            return DependencyClass.IND_ONLY
        if target is not None and self.is_key_based(target):
            return DependencyClass.KEY_BASED
        return DependencyClass.GENERAL

    def supports_exact_containment(self, schema: Optional[DatabaseSchema] = None) -> bool:
        """True if Σ is in a class for which Theorem 2 gives a decision procedure."""
        return self.classify(schema) in (
            DependencyClass.EMPTY,
            DependencyClass.FD_ONLY,
            DependencyClass.IND_ONLY,
            DependencyClass.KEY_BASED,
        )

    def is_finitely_controllable(self, schema: Optional[DatabaseSchema] = None) -> bool:
        """True if Theorem 3 guarantees ⊆f and ⊆∞ coincide for Σ.

        That is: Σ is empty, FD-only, key-based, or consists only of
        width-1 INDs.  (The paper conjectures the IND-only case in general
        but proves only width 1.)
        """
        classification = self.classify(schema)
        if classification in (DependencyClass.EMPTY, DependencyClass.FD_ONLY,
                              DependencyClass.KEY_BASED):
            return True
        if classification is DependencyClass.IND_ONLY:
            return self.has_only_unary_inds()
        return False

    # -- normalization ----------------------------------------------------------------------------

    def normalized_embedded(self, schema: Optional[DatabaseSchema] = None) -> "DependencySet":
        """Σ with every FD rewritten as an EGD and every IND as a TGD.

        The result expresses the identical constraints in the uniform
        embedded-dependency vocabulary, so it chases to the same atoms
        and yields the same containment verdicts; the tests assert this
        equivalence.  A schema is required to resolve attribute
        positions.  TGDs and EGDs already in the set are kept as-is;
        trivial FDs (tautologies with no EGD form) are dropped.
        """
        target = schema or self._schema
        if target is None:
            raise DependencyError("a schema is required to normalize FDs and INDs")
        normalized = DependencySet(schema=target)
        for dependency in self._dependencies:
            if isinstance(dependency, FunctionalDependency):
                if dependency.is_trivial:
                    continue
                normalized.add(dependency.as_egd(target))
            elif isinstance(dependency, InclusionDependency):
                normalized.add(dependency.as_tgd(target))
            else:
                normalized.add(dependency)
        return normalized

    # -- reporting -------------------------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable listing used by examples and reports."""
        lines = [f"dependency set with {len(self)} dependencies "
                 f"(max width {self.max_width()})"]
        kinds = {FunctionalDependency: "FD ", InclusionDependency: "IND",
                 TGD: "TGD", EGD: "EGD"}
        for dependency in self._dependencies:
            lines.append(f"  {kinds[type(dependency)]} {dependency}")
        return "\n".join(lines)
