"""Differential certification of the registered chase engines.

The columnar engine replaces the seed's pairwise FD scans and full index
rebuilds with incrementally maintained indexes over interned integer
ids — but it must follow the identical deterministic policy as the
legacy reference: minimum level, lexicographically first conjunct/pair,
lexicographically first dependency.  These tests certify that claim
*differentially*: hundreds of seeded random (schema, Σ, query) cases
from the workload generators are chased by both engines and the results
compared node for node — ids,
levels, terms, parents, liveness, arcs, summary row, status flags, rule
counts, and the full application trace.  That is strictly stronger than
isomorphism: the engines must agree on every step, not merely on the
final shape.

Containment verdicts are compared the same way through the public
``SolverConfig(chase_engine=...)`` knob, so the whole decision pipeline
(deepening schedule, budgets, homomorphism search) is exercised on every
engine.

The case families deliberately cover the hard corners: FD-merge cascades
(key-based Σ over queries with repeated variables), constant clashes
(failed chases), IND-introduced nulls (fresh NDVs on cyclic, infinite
chases), and redundant O-chase applications.  The FD-only family keeps
the classical Maier–Mendelzon–Sagiv chase — what FD-only containment and
the optimizer's FD stage run — certified against the reference.  The
competing-rules family puts native INDs and their TGD forms on one
pending heap, where only the (kind, index) order keeps them apart.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseResult, ChaseVariant, build_engine
from repro.chase.events import INDApplication, TGDApplication
from repro.dependencies.dependency_set import DependencySet
from repro.workloads import (
    DependencyGenerator,
    EmbeddedDependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
)

#: Every engine in the comparison matrix; the first is the reference the
#: others are asserted against.
ENGINES = ("legacy", "columnar")

#: Seeds per family; the families below multiply this into 330 differential
#: cases, comfortably past the 200 the acceptance criteria ask for.
KEY_BASED_CASES = 60
FD_ONLY_CASES = 60
IND_ONLY_CASES = 50
CYCLIC_CASES = 40
WIDE_IND_CASES = 30
COMPETING_RULES_CASES = 40
CONTAINMENT_CASES = 50


def snapshot(result: ChaseResult) -> dict:
    """Everything observable about a chase run except which engine ran it."""
    return {
        "failed": result.failed,
        "saturated": result.saturated,
        "truncated": result.truncated,
        "hit_conjunct_budget": result.hit_conjunct_budget,
        "summary_row": result.summary_row,
        "nodes": [
            (node.node_id, node.level, node.relation, node.conjunct.terms,
             node.parent, node.alive)
            for node in result.graph.nodes(include_dead=True)
        ],
        "arcs": [
            (arc.source, arc.target, str(arc.dependency), arc.kind)
            for arc in result.graph.arcs()
        ],
        "rule_counts": (
            result.statistics.fd_steps,
            result.statistics.ind_steps,
            result.statistics.redundant_ind_applications,
            result.statistics.tgd_steps,
            result.statistics.redundant_tgd_applications,
            result.statistics.egd_steps,
            result.statistics.merged_conjuncts,
            result.statistics.max_level_reached,
        ),
        "trace": [step.describe() for step in result.trace],
    }


def fd_only_case(seed):
    """A random FD-only Σ (every relation keyed on its first one or two
    columns, the FDs shuffled) and a random query with constants."""
    schema = SchemaGenerator(seed=seed).mixed(2, min_arity=2, max_arity=4)
    generator = DependencyGenerator(schema, seed=seed + 6_000)
    fds = [fd for relation in schema
           for fd in generator.key_fds(relation, key_width=1 + seed % 2)]
    random.Random(seed).shuffle(fds)
    query = QueryGenerator(schema, seed=seed).random(
        8, variable_pool=4, constant_probability=0.3)
    return query, DependencySet(fds, schema=schema)


def competing_rules_case(seed):
    """A key-based Σ (arities 1–3, so some foreign keys copy every column
    of their target), the TGD form of about half its INDs, and one random
    TGD, over a random query with constants.  An IND and its TGD form are
    pending on the same node at the same level."""
    schema = SchemaGenerator(seed=seed).mixed(4, min_arity=1, max_arity=3)
    sigma = DependencyGenerator(schema, seed=seed + 7_000).key_based(3)
    inds = sigma.inclusion_dependencies()
    for ind in random.Random(seed).sample(inds, (len(inds) + 1) // 2):
        sigma.add(ind.as_tgd(schema))
    sigma.add(EmbeddedDependencyGenerator(schema, seed=seed).random_tgd(
        max_body_atoms=2))
    query = QueryGenerator(schema, seed=seed).random(
        5, variable_pool=5, constant_probability=0.3)
    return query, sigma


def run_all(query, sigma, variant, max_level, max_conjuncts=400) -> tuple:
    results = []
    for engine in ENGINES:
        config = ChaseConfig(variant=variant, max_level=max_level,
                             max_conjuncts=max_conjuncts, engine=engine)
        results.append(build_engine(query, sigma, config).run())
    return tuple(results)


def assert_identical(query, sigma, variant, max_level, max_conjuncts=400) -> ChaseResult:
    results = run_all(query, sigma, variant, max_level, max_conjuncts)
    reference = results[0]
    expected = snapshot(reference)
    for result, engine in zip(results, ENGINES):
        assert result.engine == engine
        assert snapshot(result) == expected, (
            f"{engine} diverged from {ENGINES[0]} on {query.name} "
            f"under {list(map(str, sigma))}")
    return reference


class TestDifferentialChase:
    @pytest.mark.parametrize("seed", range(KEY_BASED_CASES))
    def test_key_based_fd_cascades(self, seed):
        """Key-based Σ over constant-heavy random queries: FD merge
        cascades, occasional constant clashes (failed chases), and
        key-directed IND firings must match step for step."""
        schema = SchemaGenerator(seed=seed).mixed(4, min_arity=2, max_arity=4)
        sigma = DependencyGenerator(schema, seed=seed + 1_000).key_based(3)
        query = QueryGenerator(schema, seed=seed).random(
            5, variable_pool=5, constant_probability=0.3)
        assert_identical(query, sigma, ChaseVariant.RESTRICTED, max_level=3)

    def test_family_exercises_fd_cascades(self):
        """Guard: the key-based family must actually hit its hard corners.

        If a workload-generator change made every seed produce zero FD
        steps, the per-seed differential tests would keep passing while
        silently losing the FD-merge-cascade coverage this family exists
        for; this aggregate check fails instead.
        """
        fd_steps = merged = failed = 0
        for seed in range(KEY_BASED_CASES):
            schema = SchemaGenerator(seed=seed).mixed(4, min_arity=2, max_arity=4)
            sigma = DependencyGenerator(schema, seed=seed + 1_000).key_based(3)
            query = QueryGenerator(schema, seed=seed).random(
                5, variable_pool=5, constant_probability=0.3)
            config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=3,
                                 max_conjuncts=400)
            result = build_engine(query, sigma, config).run()
            fd_steps += result.statistics.fd_steps
            merged += result.statistics.merged_conjuncts
            failed += result.failed
        assert fd_steps > 0, "no seed applied a single FD"
        assert merged > 0, "no seed merged conjuncts"
        assert failed > 0, "no seed hit a constant clash"

    @pytest.mark.parametrize("seed", range(FD_ONLY_CASES))
    def test_fd_only_chases(self, seed):
        """FD-only Σ (key FDs of width 1–2, in shuffled order) over
        constant-heavy random queries: merge order, coalescing, summary
        rows and constant clashes must match step for step."""
        query, sigma = fd_only_case(seed)
        variant = ChaseVariant.OBLIVIOUS if seed % 2 else ChaseVariant.RESTRICTED
        assert_identical(query, sigma, variant, max_level=None)

    def test_fd_only_family_exercises_merges_and_clashes(self):
        """Guard: the FD-only family must apply FDs, coalesce conjuncts
        and hit constant clashes, or it no longer covers the FD chase."""
        fd_steps = merged = failed = 0
        for seed in range(FD_ONLY_CASES):
            query, sigma = fd_only_case(seed)
            result = build_engine(query, sigma, ChaseConfig()).run()
            fd_steps += result.statistics.fd_steps
            merged += result.statistics.merged_conjuncts
            failed += result.failed
        assert fd_steps > 0, "no seed applied a single FD"
        assert merged > 0, "no seed merged conjuncts"
        assert failed > 0, "no seed hit a constant clash"

    @pytest.mark.parametrize("seed", range(IND_ONLY_CASES))
    def test_ind_only_chains(self, seed):
        """IND-only Σ over chain queries, both variants."""
        schema = SchemaGenerator(seed=seed).uniform(4, 3)
        sigma = DependencyGenerator(schema, seed=seed + 2_000).ind_only(4, max_width=2)
        query = QueryGenerator(schema, seed=seed).chain(3)
        variant = ChaseVariant.OBLIVIOUS if seed % 2 else ChaseVariant.RESTRICTED
        assert_identical(query, sigma, variant, max_level=4)

    @pytest.mark.parametrize("seed", range(CYCLIC_CASES))
    def test_cyclic_infinite_chases(self, seed):
        """Cyclic IND chains: the chase never saturates, so both engines
        must truncate at the same level with the same fresh NDVs."""
        schema = SchemaGenerator(seed=seed).uniform(3, 3)
        sigma = DependencyGenerator(schema, seed=seed + 3_000).cyclic_ind_chain(
            width=1 + seed % 2)
        query = QueryGenerator(schema, seed=seed).chain(2)
        variant = ChaseVariant.OBLIVIOUS if seed % 2 else ChaseVariant.RESTRICTED
        result = assert_identical(query, sigma, variant, max_level=4)
        assert result.truncated and not result.saturated

    @pytest.mark.parametrize("seed", range(WIDE_IND_CASES))
    def test_keys_plus_wide_inds(self, seed):
        """Key FDs mixed with wide random INDs: IND-introduced nulls feed
        back into the FD phase (the semi-naive agenda's hardest case)."""
        schema = SchemaGenerator(seed=seed).mixed(4, min_arity=3, max_arity=4)
        generator = DependencyGenerator(schema, seed=seed + 4_000)
        sigma = generator.key_based(2)
        for ind in generator.ind_only(3, max_width=2):
            sigma.add(ind)
        query = QueryGenerator(schema, seed=seed).star(
            schema.relation_names[0], schema.relation_names[1:3])
        assert_identical(query, sigma, ChaseVariant.RESTRICTED, max_level=3)

    @pytest.mark.parametrize("seed", range(COMPETING_RULES_CASES))
    def test_competing_single_atom_rules(self, seed):
        """INDs and IND-shaped TGDs on one heap, beside FDs and a general
        TGD: selection, redundant O-chase applications and merges must
        match step for step under both variants."""
        query, sigma = competing_rules_case(seed)
        for variant in ChaseVariant:
            assert_identical(query, sigma, variant, max_level=3)

    def test_competing_rules_family_exercises_both_kinds(self):
        """Guard: the family must apply an IND and a TGD to the same
        conjunct at the same level, make redundant O-chase applications
        of both kinds, and merge symbols."""
        shared = redundant_inds = redundant_tgds = fd_steps = 0
        for seed in range(COMPETING_RULES_CASES):
            query, sigma = competing_rules_case(seed)
            for variant in ChaseVariant:
                result = build_engine(query, sigma, ChaseConfig(
                    variant=variant, max_level=3, max_conjuncts=400)).run()
                statistics = result.statistics
                fd_steps += statistics.fd_steps
                if variant is ChaseVariant.OBLIVIOUS:
                    redundant_inds += statistics.redundant_ind_applications
                    redundant_tgds += statistics.redundant_tgd_applications
                ind_sources = {(step.source_conjunct, step.level)
                               for step in result.trace
                               if isinstance(step, INDApplication)
                               and step.created}
                shared += sum(
                    (step.source_conjuncts[0], step.level) in ind_sources
                    for step in result.trace
                    if isinstance(step, TGDApplication)
                    and len(step.source_conjuncts) == 1)
        assert shared > 0, "no IND and TGD shared a source conjunct and level"
        assert redundant_inds > 0, "no redundant O-chase IND application"
        assert redundant_tgds > 0, "no redundant O-chase TGD application"
        assert fd_steps > 0, "no seed applied a single FD"


class TestDifferentialContainment:
    @pytest.mark.parametrize("seed", range(CONTAINMENT_CASES))
    def test_verdicts_agree(self, seed):
        """Both engines must return the identical containment verdict.

        Half the pairs are known positives (a query against a weakening of
        itself), half are random pairs where either answer is possible;
        the assertion is agreement, plus soundness on the known positives.
        """
        schema = SchemaGenerator(seed=seed).uniform(4, 3)
        generator = DependencyGenerator(schema, seed=seed + 5_000)
        sigma = generator.key_based(2) if seed % 2 else generator.ind_only(3)
        queries = QueryGenerator(schema, seed=seed)
        if seed % 2:
            query = queries.random(4, variable_pool=5)
            query_prime = queries.weakened(query)
            known_positive = True
        else:
            query = queries.random(4, variable_pool=4)
            query_prime = queries.random(3, variable_pool=4)
            known_positive = False

        verdicts = {}
        for engine in ENGINES:
            solver = Solver(SolverConfig(chase_engine=engine, max_conjuncts=2_000))
            result = solver.is_contained(query, query_prime, sigma)
            verdicts[engine] = (result.holds, result.certain, result.method,
                                result.reason)
        for engine in ENGINES[1:]:
            assert verdicts[engine] == verdicts[ENGINES[0]]
        if known_positive:
            assert verdicts["columnar"][0], "weakened(Q) must contain Q"


def test_case_count_meets_acceptance_floor():
    """The acceptance criteria require ≥200 seeded differential cases."""
    total = (KEY_BASED_CASES + FD_ONLY_CASES + IND_ONLY_CASES + CYCLIC_CASES
             + WIDE_IND_CASES + COMPETING_RULES_CASES + CONTAINMENT_CASES)
    assert total >= 200
