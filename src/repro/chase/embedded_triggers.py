"""Deterministic trigger discovery for general TGDs and EGDs.

The chase policy for FDs and INDs is "lexicographically first": minimum
level, then lowest conjunct ids, then first dependency in insertion
order.  This module extends that policy to embedded dependencies, whose
triggers are *homomorphisms* of a multi-atom body into the live chase
rather than single conjuncts:

* a body match is a tuple of live nodes, one per body atom in order,
  together with the variable binding it induces; matches are enumerated
  depth-first with candidate nodes in node-id order, so they surface in
  lexicographic order of their node-id tuples;
* an **EGD trigger** is a match whose two equated variables are bound to
  different symbols; the one applied is the minimum by (node-id tuple,
  EGD insertion index) — the same shape as the FD rule's
  (conjunct pair, FD order) policy;
* a **TGD trigger** is a match that is *active*: in the R-chase, no
  extension of its frontier binding satisfies the head among the live
  nodes; in the O-chase, the (TGD, node-id tuple) pair has not been
  applied yet.  Its level is the maximum level of its image, and the one
  applied is the minimum by (level, node-id tuple, TGD insertion index)
  — the multi-node generalisation of the IND heap key.

The legacy engine calls the full-scan functions below on every round;
the columnar engine discovers the same triggers incrementally through
:class:`SemiNaiveTriggerIndex`.  Both select by the one policy spelled
out here, which is what the differential harness certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.chase.chase_graph import ChaseNode
from repro.dependencies.embedded import EGD, TGD
from repro.exceptions import DependencyError
from repro.queries.conjunct import Conjunct
from repro.terms.term import Constant, Term, Variable

#: Live nodes of one relation, in node-id order.  Duck-typed: the
#: matcher only reads ``.conjunct``, so any node-alike works — the
#: engines pass chase nodes, and the instance-level violation checks
#: (:mod:`repro.dependencies.violations`) pass Constant-wrapped rows.
NodesForRelation = Callable[[str], Sequence[ChaseNode]]

Binding = Dict[Variable, Term]


class TriggerStorage:
    """How the trigger machinery reads node terms and encodes rule constants.

    The matcher is generic over the *value domain* the chase stores its
    terms in: bindings map rule :class:`Variable` objects to storage
    values, and a rule constant only ever meets a node term after being
    pushed through :meth:`encode`.  This base class is object storage —
    node terms are the :class:`~repro.terms.term.Term` objects on
    ``node.conjunct`` and constants encode to themselves — which is what
    the full-scan functions (the legacy engine, instance violation
    checks) use.  The columnar engine supplies a storage whose values
    are interned integer term ids, so the semi-naive trigger index runs
    over flat int tuples without materialising any :class:`Term`.
    """

    __slots__ = ()

    @staticmethod
    def terms_of(node) -> Sequence:
        """The node's current terms, in the storage's value domain."""
        return node.conjunct.terms

    @staticmethod
    def encode(term: Term):
        """A rule constant's value in the storage's value domain."""
        return term


#: The default storage: Term objects straight off ``node.conjunct``.
OBJECT_STORAGE = TriggerStorage()


def _encode_atom_terms(atom: Conjunct, storage: TriggerStorage) -> Tuple:
    """The atom's terms with constants pushed into the storage domain.

    Variables stay as-is (they are binding keys, not values), so the
    unifier can discriminate with one ``isinstance`` check.
    """
    return tuple(term if isinstance(term, Variable) else storage.encode(term)
                 for term in atom.terms)


def _unify_encoded(atom: Conjunct, atom_sterms: Sequence,
                   node_terms: Sequence,
                   binding: Binding) -> Optional[Binding]:
    """Extend ``binding`` so the body atom maps onto the node's terms.

    ``atom_sterms`` are the atom's terms with constants already encoded
    into the storage domain of ``node_terms``; variables bind on first
    sight and must agree on later occurrences (the usual homomorphism
    conditions).

    An arity mismatch between the rule atom and the fact is a malformed
    dependency, never a near-miss: ``zip`` would silently match a prefix
    and bind only the leading variables, so it is rejected loudly here
    (the last line of defence behind schema validation at admission).
    """
    if len(atom_sterms) != len(node_terms):
        raise DependencyError(
            f"dependency atom {atom} has arity {len(atom_sterms)}, but is "
            f"matched against a {atom.relation} fact of arity "
            f"{len(node_terms)}; the rule does not fit the schema")
    extended: Optional[Binding] = None
    for body_term, node_term in zip(atom_sterms, node_terms):
        if not isinstance(body_term, Variable):
            if body_term != node_term:
                return None
            continue
        bound = (extended or binding).get(body_term)
        if bound is None:
            if extended is None:
                extended = dict(binding)
            extended[body_term] = node_term
        elif bound != node_term:
            return None
    return extended if extended is not None else binding


def _unify_atom(atom: Conjunct, node: ChaseNode,
                binding: Binding) -> Optional[Binding]:
    """Object-storage unification against a node (the historical entry)."""
    return _unify_encoded(atom, atom.terms, node.conjunct.terms, binding)


def _iter_encoded_matches(atoms: Sequence[Conjunct],
                          sterms: Sequence[Tuple],
                          nodes_for_relation: NodesForRelation,
                          terms_of: Callable,
                          binding: Optional[Binding] = None
                          ) -> Iterator[Tuple[Tuple[ChaseNode, ...], Binding]]:
    """Storage-generic body-match enumeration (see :func:`iter_body_matches`)."""
    # The node set is not mutated during one enumeration, so fetch each
    # atom's candidate list once instead of once per partial binding.
    candidates = [nodes_for_relation(atom.relation) for atom in atoms]

    def descend(index: int, chosen: List[ChaseNode],
                current: Binding) -> Iterator[Tuple[Tuple[ChaseNode, ...], Binding]]:
        if index == len(atoms):
            yield tuple(chosen), current
            return
        for node in candidates[index]:
            extended = _unify_encoded(atoms[index], sterms[index],
                                      terms_of(node), current)
            if extended is not None:
                chosen.append(node)
                yield from descend(index + 1, chosen, extended)
                chosen.pop()

    yield from descend(0, [], dict(binding or {}))


def iter_body_matches(atoms: Sequence[Conjunct],
                      nodes_for_relation: NodesForRelation,
                      binding: Optional[Binding] = None
                      ) -> Iterator[Tuple[Tuple[ChaseNode, ...], Binding]]:
    """All homomorphisms of the atoms into the live nodes, lexicographically.

    Yields ``(nodes, binding)`` pairs; ``nodes`` has one entry per atom in
    order, and successive yields are ascending in the node-id tuple, so
    the first yield of a filtered scan is the policy's canonical choice.
    A pre-seeded ``binding`` pins variables (used for R-chase head
    satisfaction checks).
    """
    atoms = list(atoms)
    yield from _iter_encoded_matches(
        atoms, [atom.terms for atom in atoms], nodes_for_relation,
        OBJECT_STORAGE.terms_of, binding)


# ---------------------------------------------------------------------------
# EGD triggers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EGDTrigger:
    """The chosen EGD application: its rule, image, and the two symbols."""

    index: int
    egd: EGD
    nodes: Tuple[ChaseNode, ...]
    first: Term
    second: Term

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(node.node_id for node in self.nodes)


def find_egd_trigger(egds: Sequence[EGD],
                     nodes_for_relation: NodesForRelation,
                     statistics=None) -> Optional[EGDTrigger]:
    """The policy-first violated EGD trigger, or None at the fixpoint.

    Minimum by (node-id tuple, EGD insertion index); because matches
    enumerate in node-id order, the first violating match of each EGD is
    already that EGD's minimum.
    """
    best: Optional[EGDTrigger] = None
    for index, egd in enumerate(egds):
        for nodes, binding in iter_body_matches(egd.body, nodes_for_relation):
            if statistics is not None:
                statistics.triggers_examined += 1
            first = binding[egd.lhs]
            second = binding[egd.rhs]
            if first == second:
                continue
            candidate = EGDTrigger(index, egd, nodes, first, second)
            if best is None or (candidate.node_ids, index) < (best.node_ids, best.index):
                best = candidate
            break
    return best


# ---------------------------------------------------------------------------
# TGD triggers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TGDTrigger:
    """An active TGD application: its rule, image, and frontier binding."""

    index: int
    tgd: TGD
    nodes: Tuple[ChaseNode, ...]
    binding: Tuple[Tuple[Variable, Term], ...]

    @property
    def node_ids(self) -> Tuple[int, ...]:
        cached = self.__dict__.get("_node_ids")
        if cached is None:
            cached = tuple(node.node_id for node in self.nodes)
            object.__setattr__(self, "_node_ids", cached)
        return cached

    @property
    def level(self) -> int:
        """The trigger's level: the deepest node of its image.

        Memoised: any later level change comes from a merge-driven
        rewrite, which also invalidates every cached trigger over the
        touched relation, so a live trigger object never sees one.
        """
        cached = self.__dict__.get("_level")
        if cached is None:
            cached = max(node.level for node in self.nodes)
            object.__setattr__(self, "_level", cached)
        return cached

    @property
    def applied_key(self) -> Tuple[int, Tuple[int, ...]]:
        """The O-chase once-per-trigger key (stable under term rewrites)."""
        return (self.index, self.node_ids)

    def priority(self) -> Tuple[int, Tuple[int, ...], int]:
        """The selection key: (level, node-id tuple, TGD order)."""
        cached = self.__dict__.get("_priority")
        if cached is None:
            cached = (self.level, self.node_ids, self.index)
            object.__setattr__(self, "_priority", cached)
        return cached

    def binding_dict(self) -> Binding:
        cached = self.__dict__.get("_binding_dict")
        if cached is None:
            cached = dict(self.binding)
            object.__setattr__(self, "_binding_dict", cached)
        return cached


def head_satisfied(tgd: TGD, binding: Binding,
                   nodes_for_relation: NodesForRelation) -> bool:
    """R-chase requirement check: does the head already match somewhere?

    The frontier variables are pinned to the body match's values; the
    existential variables range freely over the live nodes — the
    multi-atom generalisation of the IND "c'[Y] = c[X]" lookup.
    """
    frontier = {variable: binding[variable] for variable in tgd.frontier()}
    for _ in iter_body_matches(tgd.head, nodes_for_relation, frontier):
        return True
    return False


def find_tgd_trigger(tgds: Sequence[TGD],
                     nodes_for_relation: NodesForRelation,
                     oblivious: bool,
                     applied: Set[Tuple[int, Tuple[int, ...]]],
                     statistics=None) -> Optional[TGDTrigger]:
    """The minimum-priority *active* TGD trigger, or None if none is.

    Unlike the per-EGD shortcut, every match must be inspected: node ids
    do not order levels (FD merges can lower a survivor's level), so the
    minimum (level, ids, index) need not be the first match enumerated.
    """
    best: Optional[TGDTrigger] = None
    for index, tgd in enumerate(tgds):
        for nodes, binding in iter_body_matches(tgd.body, nodes_for_relation):
            if statistics is not None:
                statistics.triggers_examined += 1
            node_ids = tuple(node.node_id for node in nodes)
            if oblivious:
                if (index, node_ids) in applied:
                    continue
            elif head_satisfied(tgd, binding, nodes_for_relation):
                if statistics is not None:
                    statistics.index_hits += 1
                continue
            candidate = TGDTrigger(index, tgd, nodes, tuple(binding.items()))
            if best is None or candidate.priority() < best.priority():
                best = candidate
    return best


# ---------------------------------------------------------------------------
# Semi-naive trigger discovery (the columnar engine's delta discipline)
# ---------------------------------------------------------------------------


class SemiNaiveTriggerIndex:
    """Delta-driven TGD/EGD trigger discovery for the columnar engine.

    :func:`find_egd_trigger` / :func:`find_tgd_trigger` re-enumerate every
    body match from scratch each round.  This index extends the FD
    fixpoint's semi-naive discipline to embedded dependencies instead:

    * the engine reports every node *touched* (added or rewritten) via
      :meth:`touch`; each rule keeps a cursor into that append-only delta
      log and, when consulted, seeds body-match joins from a delta node
      pinned at one body position, completing the remaining atoms from
      the per-relation live-node index.  A match can only appear when one
      of its member nodes was touched (matching depends on member terms
      alone), so seeding from the delta finds every new match;
    * discovered matches live in per-rule **pools** keyed by their
      node-id tuple.  A match is permanent while its members are alive —
      merges only *equate* symbols, they never un-match a tuple — so the
      pools are maintained, never rebuilt;
    * facts that cannot change back are cached for good: an EGD match
      seen non-violating stays non-violating (equality survives every
      later merge), and an R-chase head seen satisfied stays satisfied
      (atoms are never destroyed, only merged into identical survivors).
      Unsatisfied heads are re-checked only when the head relations or
      the frontier values actually changed (a per-relation version gate).

    Selection re-reads levels and bindings from the live nodes, so the
    chosen trigger is identical — match for match — to the full rescan's
    choice; the differential harness certifies this against
    ``legacy_engine.py``, which keeps calling the full-scan functions.
    """

    def __init__(self, tgds: Sequence[TGD], egds: Sequence[EGD],
                 nodes_for_relation: NodesForRelation,
                 node_by_id: Callable[[int], ChaseNode],
                 storage: TriggerStorage,
                 statistics=None, oblivious: bool = False):
        self._tgds = list(tgds)
        self._egds = list(egds)
        self._nodes_for_relation = nodes_for_relation
        self._node_by_id = node_by_id
        self._statistics = statistics
        self._oblivious = oblivious
        self._storage = storage
        self._terms_of = storage.terms_of
        # Rule atoms with constants pushed into the storage domain, one
        # tuple-of-tuples per rule in atom order.
        self._tgd_body_sterms = [
            tuple(_encode_atom_terms(atom, self._storage) for atom in tgd.body)
            for tgd in self._tgds]
        self._tgd_head_sterms = [
            tuple(_encode_atom_terms(atom, self._storage) for atom in tgd.head)
            for tgd in self._tgds]
        self._egd_body_sterms = [
            tuple(_encode_atom_terms(atom, self._storage) for atom in egd.body)
            for egd in self._egds]
        self._delta: List[int] = []
        self._tgd_cursors = [0] * len(self._tgds)
        self._egd_cursors = [0] * len(self._egds)
        self._tgd_pools: List[Set[Tuple[int, ...]]] = [set() for _ in self._tgds]
        self._egd_pools: List[Set[Tuple[int, ...]]] = [set() for _ in self._egds]
        #: Per-EGD matches proven non-violating — never re-derived.
        self._egd_settled: List[Set[Tuple[int, ...]]] = [set() for _ in self._egds]
        #: Per-TGD matches whose R-chase head is satisfied — never re-derived.
        self._tgd_satisfied: List[Set[Tuple[int, ...]]] = [set() for _ in self._tgds]
        #: Last unsatisfied head check per match.  Single-atom heads cache
        #: (delta cursor scanned, head-relation version, frontier values) —
        #: later rounds skip entirely while the head relation's version
        #: stands, and otherwise examine only the delta suffix.  Multi-atom
        #: heads cache (head-relation versions, frontier values) and redo
        #: the full join only when that gate moves.
        self._head_checked: List[Dict[Tuple[int, ...], tuple]] = [
            {} for _ in self._tgds]
        self._versions: Dict[str, int] = {}
        #: Per-node rewrite stamps; a pool entry's cached binding is valid
        #: exactly while every member keeps its stamp (rewrites bump it).
        self._node_stamps: Dict[int, int] = {}
        #: Per-rule resolved-entry caches: ids -> [member stamps, member
        #: nodes, binding, cached trigger object, cached frontier values
        #: (the trigger and frontier slots are TGD-only)].
        self._tgd_bindings: List[Dict[Tuple[int, ...], list]] = [
            {} for _ in self._tgds]
        self._egd_bindings: List[Dict[Tuple[int, ...], list]] = [
            {} for _ in self._egds]
        plans = [self._rule_plan(tgd) for tgd in self._tgds]
        self._tgd_seeds = [plan[0] for plan in plans]
        self._head_relations = [plan[1] for plan in plans]
        self._single_heads = [plan[2] for plan in plans]
        self._frontiers = [plan[3] for plan in plans]
        self._tgd_trivial = [plan[5] for plan in plans]
        # Head-check plans carry the head's constants; encode them into
        # the storage domain once so the per-candidate positional test
        # compares storage values directly.
        self._head_plans = [
            plan[6] if plan[6] is None else (
                plan[6][0],
                tuple((position, self._storage.encode(constant))
                      for position, constant in plan[6][1]),
                plan[6][2])
            for plan in plans]
        egd_plans = [self._egd_plan(egd) for egd in self._egds]
        self._egd_seeds = [plan[0] for plan in egd_plans]
        self._egd_trivial = [plan[1] for plan in egd_plans]
        #: Per-TGD cached active-trigger lists, invalidated eagerly by
        #: :meth:`touch` and :meth:`note_tgd_applied`.  A touch in a rule's
        #: *body* relation can add matches or rewrite member bindings, so
        #: the whole list is recomputed; a touch in a (non-body) *head*
        #: relation can only satisfy R-chase requirements, so the cached
        #: triggers are kept and merely re-checked (``_tgd_recheck``).  In
        #: the O-chase head touches are irrelevant and watch nothing.
        self._tgd_actives: List[Optional[List["TGDTrigger"]]] = [
            None for _ in self._tgds]
        self._tgd_recheck = [False] * len(self._tgds)
        body_watchers: Dict[str, List[int]] = {}
        head_watchers: Dict[str, List[int]] = {}
        for index, plan in enumerate(plans):
            body_relations = plan[4]
            for relation in body_relations:
                body_watchers.setdefault(relation, []).append(index)
            if not oblivious:
                for relation in plan[1]:
                    if relation not in body_relations:
                        head_watchers.setdefault(relation, []).append(index)
        self._body_watchers = {relation: tuple(indexes)
                               for relation, indexes in body_watchers.items()}
        self._head_watchers = {relation: tuple(indexes)
                               for relation, indexes in head_watchers.items()}

    @staticmethod
    def _seed_positions(atoms: Sequence[Conjunct]) -> Dict[str, List[int]]:
        positions: Dict[str, List[int]] = {}
        for index, atom in enumerate(atoms):
            positions.setdefault(atom.relation, []).append(index)
        return positions

    @staticmethod
    def _rule_plan(tgd: TGD) -> tuple:
        """Static per-TGD matching metadata, memoised on the frozen rule.

        (seed positions, sorted head relations, single head atom or None,
        name-sorted frontier, body relation set, trivial-body flag) — all
        derived purely from the rule, so repeated engine constructions
        over the same Σ reuse one computation.
        """
        plan = tgd.__dict__.get("_chase_plan")
        if plan is None:
            single_head = tgd.head[0] if len(tgd.head) == 1 else None
            frontier = tuple(sorted(tgd.frontier(), key=lambda v: v.name))
            plan = (
                SemiNaiveTriggerIndex._seed_positions(tgd.body),
                tuple(sorted({atom.relation for atom in tgd.head})),
                single_head,
                frontier,
                frozenset(atom.relation for atom in tgd.body),
                SemiNaiveTriggerIndex._trivial_body(tgd.body),
                SemiNaiveTriggerIndex._head_check_plan(single_head, frontier),
            )
            object.__setattr__(tgd, "_chase_plan", plan)
        return plan

    @staticmethod
    def _head_check_plan(single_head: Optional[Conjunct],
                         frontier: Tuple[Variable, ...]) -> Optional[tuple]:
        """Positional satisfaction test for a single-atom head, or None.

        A candidate fact satisfies the head under given frontier values
        iff its terms agree with the frontier values at the frontier
        positions, with the head's constants at constant positions, and
        with themselves across repeated existential positions.  Checking
        positions directly avoids building a pinned binding and running
        the general unifier once per candidate.
        """
        if single_head is None:
            return None
        frontier_index = {variable: i for i, variable in enumerate(frontier)}
        frontier_eqs: List[Tuple[int, int]] = []
        const_eqs: List[Tuple[int, Constant]] = []
        existential_positions: Dict[Variable, List[int]] = {}
        for position, term in enumerate(single_head.terms):
            if isinstance(term, Constant):
                const_eqs.append((position, term))
            elif term in frontier_index:
                frontier_eqs.append((position, frontier_index[term]))
            else:
                existential_positions.setdefault(term, []).append(position)
        exist_groups = tuple(tuple(positions) for positions
                             in existential_positions.values()
                             if len(positions) > 1)
        return (tuple(frontier_eqs), tuple(const_eqs), exist_groups)

    @staticmethod
    def _trivial_body(atoms: Sequence[Conjunct]) -> bool:
        """True when any node of the body relation is a match.

        A single body atom over pairwise-distinct variables (no constants,
        no repeats) unifies with *every* fact of its relation, so the
        delta scan can skip unification entirely and match on relation
        alone.  Every IND-expressible rule qualifies.
        """
        if len(atoms) != 1:
            return False
        terms = atoms[0].terms
        return (len(set(terms)) == len(terms)
                and not any(isinstance(term, Constant) for term in terms))

    @staticmethod
    def _egd_plan(egd: EGD) -> tuple:
        """(seed positions, trivial-body flag), memoised on the frozen rule."""
        plan = egd.__dict__.get("_chase_seeds")
        if plan is None:
            plan = (SemiNaiveTriggerIndex._seed_positions(egd.body),
                    SemiNaiveTriggerIndex._trivial_body(egd.body))
            object.__setattr__(egd, "_chase_seeds", plan)
        return plan

    # -- delta intake ---------------------------------------------------------

    def touch(self, node: ChaseNode) -> None:
        """Record a node as added or rewritten since the rules' last rounds."""
        node_id = node.node_id
        relation = node.relation
        self._delta.append(node_id)
        versions = self._versions
        versions[relation] = versions.get(relation, 0) + 1
        stamps = self._node_stamps
        stamps[node_id] = stamps.get(node_id, 0) + 1
        actives = self._tgd_actives
        for index in self._body_watchers.get(relation, ()):
            actives[index] = None
        recheck = self._tgd_recheck
        for index in self._head_watchers.get(relation, ()):
            recheck[index] = True

    # -- delta-seeded match discovery ----------------------------------------

    def _seeded_match_ids(self, atoms: Sequence[Conjunct],
                          sterms: Sequence[Tuple], pin: int,
                          pinned: ChaseNode,
                          candidates: Dict[str, Sequence[ChaseNode]]
                          ) -> Iterator[Tuple[int, ...]]:
        """All body matches with the delta node at one pinned position."""
        terms_of = self._terms_of
        seed = _unify_encoded(atoms[pin], sterms[pin], terms_of(pinned), {})
        if seed is None:
            return
        chosen: List[int] = [0] * len(atoms)
        chosen[pin] = pinned.node_id

        def descend(index: int, binding: Binding) -> Iterator[Tuple[int, ...]]:
            if index == len(atoms):
                yield tuple(chosen)
                return
            if index == pin:
                yield from descend(index + 1, binding)
                return
            relation = atoms[index].relation
            pool = candidates.get(relation)
            if pool is None:
                pool = candidates[relation] = self._nodes_for_relation(relation)
            for node in pool:
                extended = _unify_encoded(atoms[index], sterms[index],
                                          terms_of(node), binding)
                if extended is not None:
                    chosen[index] = node.node_id
                    yield from descend(index + 1, extended)

        yield from descend(0, seed)

    def _refresh_rule(self, atoms: Sequence[Conjunct],
                      sterms: Sequence[Tuple],
                      seeds: Dict[str, List[int]],
                      pool: Set[Tuple[int, ...]],
                      cursor: int,
                      retired: Set[Tuple[int, ...]],
                      trivial: bool = False) -> int:
        """Advance one rule's cursor over the delta log, growing its pool."""
        delta = self._delta
        end = len(delta)
        if cursor == end:
            return cursor
        statistics = self._statistics
        node_by_id = self._node_by_id
        if len(atoms) == 1:
            # Single-atom body (every IND-expressible rule): the match IS
            # the delta node, no join to complete — and a trivial body
            # (distinct variables) matches on relation alone.
            atom = atoms[0]
            relation = atom.relation
            for position in range(cursor, end):
                node = node_by_id(delta[position])
                if node.relation != relation or not node.alive:
                    continue
                if not trivial and _unify_encoded(
                        atom, sterms[0], self._terms_of(node), {}) is None:
                    continue
                ids = (node.node_id,)
                if ids in pool:
                    continue
                if ids in retired:
                    if statistics is not None:
                        statistics.trigger_cache_hits += 1
                    continue
                pool.add(ids)
                if statistics is not None:
                    statistics.delta_seeded_matches += 1
                    statistics.triggers_examined += 1
            return end
        candidates: Dict[str, Sequence[ChaseNode]] = {}
        for position in range(cursor, end):
            node = node_by_id(delta[position])
            if not node.alive:
                continue
            pins = seeds.get(node.relation)
            if not pins:
                continue
            for pin in pins:
                for ids in self._seeded_match_ids(atoms, sterms, pin, node,
                                                  candidates):
                    if ids in pool:
                        continue
                    if ids in retired:
                        if statistics is not None:
                            statistics.trigger_cache_hits += 1
                        continue
                    pool.add(ids)
                    if statistics is not None:
                        statistics.delta_seeded_matches += 1
                        statistics.triggers_examined += 1
        return end

    def _resolve(self, atoms: Sequence[Conjunct], sterms: Sequence[Tuple],
                 ids: Tuple[int, ...],
                 cache: Dict[Tuple[int, ...], list]) -> Optional[list]:
        """A pool entry's cache record (stamps, nodes, binding, trigger
        slot, frontier-values slot), or None if a member died.

        Liveness is always re-checked (a member may die without its own
        stamp moving), but the binding is only re-unified when a member
        was rewritten since the cached entry — node objects are stable,
        so an unchanged stamp tuple means an unchanged binding.
        """
        node_stamps = self._node_stamps
        if len(ids) == 1:
            # Single-member match (every IND-expressible rule): scalar
            # stamp, no join to re-walk.
            node_id = ids[0]
            node = self._node_by_id(node_id)
            if not node.alive:
                cache.pop(ids, None)
                return None
            stamp_key = node_stamps.get(node_id, 0)
            cached = cache.get(ids)
            if cached is not None and cached[0] == stamp_key:
                return cached
            binding = _unify_encoded(atoms[0], sterms[0],
                                     self._terms_of(node), {})
            if binding is None:
                cache.pop(ids, None)
                return None
            entry = [stamp_key, (node,), binding, None, None]
            cache[ids] = entry
            return entry
        stamps: List[int] = []
        nodes: List[ChaseNode] = []
        for node_id in ids:
            node = self._node_by_id(node_id)
            if not node.alive:
                cache.pop(ids, None)
                return None
            nodes.append(node)
            stamps.append(node_stamps.get(node_id, 0))
        stamp_key = tuple(stamps)
        cached = cache.get(ids)
        if cached is not None and cached[0] == stamp_key:
            return cached
        terms_of = self._terms_of
        binding: Binding = {}
        for atom, atom_sterms, node in zip(atoms, sterms, nodes):
            extended = _unify_encoded(atom, atom_sterms, terms_of(node), binding)
            if extended is None:
                # Unreachable while members live (merges preserve matches);
                # kept so a pool entry can only ever be dropped, not crash.
                cache.pop(ids, None)
                return None
            binding = extended
        entry = [stamp_key, tuple(nodes), binding, None, None]
        cache[ids] = entry
        return entry

    # -- selection ------------------------------------------------------------

    def next_egd_trigger(self) -> Optional[EGDTrigger]:
        """The policy-first violated EGD trigger over the maintained pools."""
        best: Optional[EGDTrigger] = None
        for index, egd in enumerate(self._egds):
            pool = self._egd_pools[index]
            bindings = self._egd_bindings[index]
            sterms = self._egd_body_sterms[index]
            self._egd_cursors[index] = self._refresh_rule(
                egd.body, sterms, self._egd_seeds[index], pool,
                self._egd_cursors[index], self._egd_settled[index],
                self._egd_trivial[index])
            drop: List[Tuple[int, ...]] = []
            found: Optional[EGDTrigger] = None
            for ids in sorted(pool):
                resolved = self._resolve(egd.body, sterms, ids, bindings)
                if resolved is None:
                    drop.append(ids)
                    continue
                nodes, binding = resolved[1], resolved[2]
                first = binding[egd.lhs]
                second = binding[egd.rhs]
                if first == second:
                    # Equality survives every later merge: settled for good.
                    self._egd_settled[index].add(ids)
                    drop.append(ids)
                    continue
                found = EGDTrigger(index, egd, nodes, first, second)
                break
            for ids in drop:
                pool.discard(ids)
                bindings.pop(ids, None)
            if found is not None and (
                    best is None
                    or (found.node_ids, index) < (best.node_ids, best.index)):
                best = found
        return best

    def _retire_satisfied(self, index: int, ids: Tuple[int, ...]) -> None:
        """Permanently cache a match whose R-chase head is now satisfied."""
        self._tgd_satisfied[index].add(ids)
        self._tgd_pools[index].discard(ids)
        self._head_checked[index].pop(ids, None)
        self._tgd_bindings[index].pop(ids, None)
        if self._statistics is not None:
            self._statistics.index_hits += 1

    def _head_unsatisfied(self, index: int, ids: Tuple[int, ...],
                          frontier_values: tuple) -> bool:
        """R-chase: is the head of match ``ids`` still unsatisfied?

        Single-atom heads are re-checked *incrementally*: atoms present at
        the last scan cannot start matching while the frontier values
        stand still, so only the delta suffix (new and rewritten nodes)
        is examined.  Multi-atom heads redo the pinned join, gated on the
        head relations' versions.  A satisfied match is retired for good.
        """
        statistics = self._statistics
        checked = self._head_checked[index]
        frontier = self._frontiers[index]
        single_head = self._single_heads[index]
        prior = checked.get(ids)
        if single_head is not None:
            relation = single_head.relation
            version = self._versions.get(relation, 0)
            if prior is not None and prior[2] == frontier_values:
                if prior[1] == version:
                    # No head-relation atom was added or rewritten since
                    # the last scan: nothing new can satisfy the head.
                    if statistics is not None:
                        statistics.trigger_cache_hits += 1
                    return True
                start = prior[0]
            else:
                start = 0
            delta = self._delta
            end = len(delta)
            node_by_id = self._node_by_id
            frontier_eqs, const_eqs, exist_groups = self._head_plans[index]
            for position in range(start, end):
                candidate = node_by_id(delta[position])
                if candidate.relation != relation or not candidate.alive:
                    continue
                terms = self._terms_of(candidate)
                match = True
                for term_position, frontier_position in frontier_eqs:
                    if terms[term_position] != frontier_values[frontier_position]:
                        match = False
                        break
                if match and const_eqs:
                    for term_position, constant in const_eqs:
                        if terms[term_position] != constant:
                            match = False
                            break
                if match and exist_groups:
                    for group in exist_groups:
                        first = terms[group[0]]
                        for term_position in group:
                            if terms[term_position] != first:
                                match = False
                                break
                        if not match:
                            break
                if match:
                    self._retire_satisfied(index, ids)
                    return False
            checked[ids] = (end, version, frontier_values)
            return True
        head_versions = tuple(self._versions.get(relation, 0)
                              for relation in self._head_relations[index])
        gate = (head_versions, frontier_values)
        if prior == gate:
            # Head relations and frontier values unchanged since the last
            # (unsatisfied) check: still unsatisfied.
            if statistics is not None:
                statistics.trigger_cache_hits += 1
            return True
        pinned = dict(zip(frontier, frontier_values))
        if any(True for _ in _iter_encoded_matches(
                self._tgds[index].head, self._tgd_head_sterms[index],
                self._nodes_for_relation, self._terms_of, pinned)):
            self._retire_satisfied(index, ids)
            return False
        checked[ids] = gate
        return True

    def _recheck_cached(self, index: int,
                        cached: List[TGDTrigger]) -> List[TGDTrigger]:
        """Re-filter a cached actives list after head-only touches.

        Body relations were not touched, so members, bindings, levels and
        order all stand; only R-chase satisfaction can have flipped.
        """
        checked = self._head_checked[index]
        single_head = self._single_heads[index]
        head_version = (self._versions.get(single_head.relation, 0)
                        if single_head is not None else None)
        kept: List[TGDTrigger] = []
        for trigger in cached:
            ids = trigger.node_ids
            prior = checked.get(ids)
            if prior is not None:
                if single_head is not None and prior[1] == head_version:
                    # The head relation has not moved since this match's
                    # last unsatisfied scan.
                    kept.append(trigger)
                    continue
                frontier_values = prior[-1]
            else:
                frontier_values = tuple(
                    trigger.binding_dict()[variable]
                    for variable in self._frontiers[index])
            if self._head_unsatisfied(index, ids, frontier_values):
                kept.append(trigger)
        return kept

    def active_tgd_triggers(self, oblivious: bool,
                            applied: Set[Tuple[int, Tuple[int, ...]]]
                            ) -> List[TGDTrigger]:
        """Every active TGD trigger, ascending by selection priority."""
        statistics = self._statistics
        tgd_actives = self._tgd_actives
        tgd_recheck = self._tgd_recheck
        triggers: List[TGDTrigger] = []
        for index, tgd in enumerate(self._tgds):
            cached = tgd_actives[index]
            if cached is not None:
                if tgd_recheck[index]:
                    # Only head relations moved: keep the cached triggers,
                    # re-checking satisfaction alone.
                    tgd_recheck[index] = False
                    if cached:
                        cached = self._recheck_cached(index, cached)
                        tgd_actives[index] = cached
                elif cached and statistics is not None:
                    # Nothing this rule watches moved: last round's
                    # actives stand verbatim.
                    statistics.trigger_cache_hits += 1
                triggers.extend(cached)
                continue
            pool = self._tgd_pools[index]
            satisfied = self._tgd_satisfied[index]
            checked = self._head_checked[index]
            bindings = self._tgd_bindings[index]
            rule_triggers: List[TGDTrigger] = []
            sterms = self._tgd_body_sterms[index]
            self._tgd_cursors[index] = self._refresh_rule(
                tgd.body, sterms, self._tgd_seeds[index], pool,
                self._tgd_cursors[index], satisfied,
                self._tgd_trivial[index])
            frontier = self._frontiers[index]
            single_head = self._single_heads[index]
            head_version = (self._versions.get(single_head.relation, 0)
                            if single_head is not None else None)
            drop: List[Tuple[int, ...]] = []
            for ids in sorted(pool):
                if oblivious:
                    if (index, ids) in applied:
                        drop.append(ids)
                        continue
                elif ids in satisfied:
                    drop.append(ids)
                    if statistics is not None:
                        statistics.trigger_cache_hits += 1
                    continue
                resolved = self._resolve(tgd.body, sterms, ids, bindings)
                if resolved is None:
                    drop.append(ids)
                    continue
                binding = resolved[2]
                if not oblivious:
                    frontier_values = resolved[4]
                    if frontier_values is None:
                        frontier_values = tuple(
                            binding[variable] for variable in frontier)
                        resolved[4] = frontier_values
                    prior = checked.get(ids)
                    if (single_head is not None and prior is not None
                            and prior[1] == head_version
                            and prior[2] == frontier_values):
                        # Head relation unmoved since the last unsatisfied
                        # scan of this match: skip the re-check entirely.
                        if statistics is not None:
                            statistics.trigger_cache_hits += 1
                    elif not self._head_unsatisfied(index, ids,
                                                    frontier_values):
                        continue
                trigger = resolved[3]
                if trigger is None:
                    trigger = TGDTrigger(index, tgd, resolved[1],
                                         tuple(binding.items()))
                    resolved[3] = trigger
                rule_triggers.append(trigger)
            for ids in drop:
                pool.discard(ids)
                checked.pop(ids, None)
                bindings.pop(ids, None)
            tgd_recheck[index] = False
            tgd_actives[index] = rule_triggers
            triggers.extend(rule_triggers)
        triggers.sort(key=TGDTrigger.priority)
        return triggers

    def note_tgd_applied(self, trigger: TGDTrigger, oblivious: bool) -> None:
        """Retire an applied trigger from its pool (and cache its head).

        In the R-chase an application materialises its own head, so the
        match joins the permanently-satisfied cache; in the O-chase the
        engine's applied-key set already blocks re-selection.

        Only the applied trigger leaves the rule's cached actives: the
        engine reports every node the application creates (and every
        node the ensuing equality fixpoint rewrites) through
        :meth:`touch` *after* this call, so any effect on the rule's
        other matches — new matches, rewritten bindings, freshly
        satisfied heads — still invalidates or re-checks the cache
        through the ordinary watcher paths.
        """
        index = trigger.index
        ids = trigger.node_ids
        self._tgd_pools[index].discard(ids)
        self._head_checked[index].pop(ids, None)
        self._tgd_bindings[index].pop(ids, None)
        cached = self._tgd_actives[index]
        if cached is not None:
            self._tgd_actives[index] = [
                active for active in cached if active is not trigger]
        if not oblivious:
            self._tgd_satisfied[index].add(ids)
