"""Embedded dependencies (TGDs/EGDs): objects, analysis, chase, containment.

Covers the general-Σ scenario class end to end:

* TGD/EGD construction, normalization, validation, and rendering;
* the FD→EGD and IND→TGD normalizations and their semantic equivalence
  (identical chases and identical containment verdicts);
* DependencySet classification, fingerprints, and widths for embedded Σ;
* the weak-acyclicity termination analysis over general TGDs;
* TGD/EGD chases under both engines with node-for-node agreement;
* exact containment verdicts for certified-terminating Σ and the
  preserved uncertain-negative semantics for non-weakly-acyclic Σ;
* the weakly-acyclic workload generator;
* TGD/EGD serialization and the service protocol's inline deps texts.
"""

from __future__ import annotations

import pytest

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseVariant
from repro.chase.columnar import ColumnarChaseEngine
from repro.chase.legacy_engine import LegacyChaseEngine
from repro.chase.termination import (
    analyse_termination,
    chase_guaranteed_finite,
    dependency_position_graph,
)
from repro.containment.serialization import (
    dependency_from_dict,
    dependency_set_from_dict,
    dependency_set_to_dict,
    dependency_to_dict,
)
from repro.dependencies import (
    EGD,
    TGD,
    DependencyClass,
    DependencySet,
    FunctionalDependency,
    InclusionDependency,
)
from repro.exceptions import DependencyError
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.parser.dependency_parser import parse_dependency
from repro.queries.conjunct import Conjunct
from repro.relational.schema import DatabaseSchema
from repro.service.protocol import ServiceDefaults, handle_record, make_worker_solver
from repro.terms.term import Constant, DistinguishedVariable, Variable
from repro.workloads import EmbeddedDependencyGenerator, SchemaGenerator

ENGINES = ("legacy", "columnar")


@pytest.fixture
def rst_schema() -> DatabaseSchema:
    return DatabaseSchema.from_dict({
        "R": ["a", "b"], "S": ["c", "d"], "T": ["e", "f"],
    })


def x(name: str) -> Variable:
    return Variable(name)


def chase_both_engines(query, sigma, variant=ChaseVariant.RESTRICTED,
                       max_level=None, max_conjuncts=5_000):
    """Chase under both engines, assert node-for-node agreement, and
    return the (columnar, legacy) pair."""
    config_kwargs = dict(variant=variant, max_level=max_level,
                         max_conjuncts=max_conjuncts)
    columnar = ColumnarChaseEngine(query, sigma,
                                   ChaseConfig(**config_kwargs)).run()
    legacy = LegacyChaseEngine(query, sigma, ChaseConfig(**config_kwargs)).run()
    assert_same_chase(columnar, legacy)
    return columnar, legacy


def assert_same_chase(first, second):
    """Node-for-node agreement: ids, levels, atoms, arcs, summary, status."""
    assert first.failed == second.failed
    assert first.saturated == second.saturated
    assert first.truncated == second.truncated
    assert first.summary_row == second.summary_row
    first_nodes = [(n.node_id, n.level, n.relation, n.conjunct.terms)
                   for n in first.graph]
    second_nodes = [(n.node_id, n.level, n.relation, n.conjunct.terms)
                    for n in second.graph]
    assert first_nodes == second_nodes
    first_arcs = [(a.source, a.target, str(a.dependency), a.kind)
                  for a in first.graph.arcs()]
    second_arcs = [(a.source, a.target, str(a.dependency), a.kind)
                   for a in second.graph.arcs()]
    assert first_arcs == second_arcs


# ---------------------------------------------------------------------------
# The dependency objects
# ---------------------------------------------------------------------------


class TestTGDObject:
    def test_frontier_and_existentials(self):
        tgd = TGD([Conjunct("R", [x("u"), x("v")])],
                  [Conjunct("S", [x("v"), x("w")])])
        assert {variable.name for variable in tgd.frontier()} == {"v"}
        assert {variable.name for variable in tgd.existential_variables()} == {"w"}
        assert tgd.width == 1
        assert not tgd.is_full

    def test_full_tgd(self):
        tgd = TGD([Conjunct("R", [x("u"), x("v")])],
                  [Conjunct("S", [x("u"), x("v")])])
        assert tgd.is_full and tgd.width == 2

    def test_variable_flavours_normalise(self):
        """DV/NDV atoms and plain-variable atoms build equal rules."""
        from repro.terms.term import NonDistinguishedVariable
        plain = TGD([Conjunct("R", [x("u"), x("v")])],
                    [Conjunct("S", [x("v"), x("w")])])
        fancy = TGD(
            [Conjunct("R", [DistinguishedVariable("u"),
                            NonDistinguishedVariable("v")], label="lbl")],
            [Conjunct("S", [NonDistinguishedVariable("v"),
                            DistinguishedVariable("w")])])
        assert plain == fancy and hash(plain) == hash(fancy)

    def test_empty_sides_rejected(self):
        with pytest.raises(DependencyError):
            TGD([], [Conjunct("S", [x("v")])])
        with pytest.raises(DependencyError):
            TGD([Conjunct("R", [x("v")])], [])

    def test_validate_checks_relations_and_arities(self, rst_schema):
        good = TGD([Conjunct("R", [x("u"), x("v")])],
                   [Conjunct("S", [x("v"), x("w")])])
        good.validate(rst_schema)
        with pytest.raises(DependencyError):
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("MISSING", [x("v")])]).validate(rst_schema)
        with pytest.raises(DependencyError):
            TGD([Conjunct("R", [x("u")])],
                [Conjunct("S", [x("u"), x("w")])]).validate(rst_schema)


class TestEGDObject:
    def test_construction_and_str(self):
        egd = EGD([Conjunct("R", [x("u"), x("v")]),
                   Conjunct("R", [x("u"), x("w")])], x("v"), x("w"))
        assert str(egd) == "R(u, v), R(u, w) -> v = w"
        assert {variable.name for variable in egd.body_variables()} == {"u", "v", "w"}

    def test_sides_must_occur_in_body(self):
        with pytest.raises(DependencyError):
            EGD([Conjunct("R", [x("u"), x("v")])], x("v"), x("zz"))

    def test_trivial_equality_rejected(self):
        with pytest.raises(DependencyError):
            EGD([Conjunct("R", [x("u"), x("v")])], x("v"), x("v"))


class TestNormalization:
    def test_fd_as_egd(self, rst_schema):
        fd = FunctionalDependency("R", ["a"], "b")
        egd = fd.as_egd(rst_schema)
        assert str(egd) == "R(x1, x2), R(x1, y2) -> x2 = y2"

    def test_ind_as_tgd(self, rst_schema):
        ind = InclusionDependency("R", [2], "S", [1])
        tgd = ind.as_tgd(rst_schema)
        assert str(tgd) == "R(x1, x2) -> S(x2, y2)"
        assert tgd.width == ind.width

    def test_normalized_embedded_set(self, rst_schema):
        sigma = DependencySet([
            FunctionalDependency("S", ["c"], "d"),
            InclusionDependency("R", ["a"], "S", ["c"]),
        ], schema=rst_schema)
        normalized = sigma.normalized_embedded(rst_schema)
        assert len(normalized) == 2
        assert len(normalized.egds()) == 1 and len(normalized.tgds()) == 1
        assert normalized.classify(rst_schema) is DependencyClass.EMBEDDED

    def test_normalized_embedded_requires_schema(self):
        with pytest.raises(DependencyError):
            DependencySet([FunctionalDependency("R", ["a"], "b")]).normalized_embedded()

    def test_trivial_fd_has_no_egd_form(self, rst_schema):
        trivial = FunctionalDependency("R", ["a", "b"], "a")
        assert trivial.is_trivial
        with pytest.raises(DependencyError):
            trivial.as_egd(rst_schema)

    def test_normalized_embedded_drops_trivial_fds(self, rst_schema):
        """Trivial FDs are tautologies; normalization skips, not crashes."""
        sigma = DependencySet([
            FunctionalDependency("R", ["a", "b"], "a"),
            FunctionalDependency("S", ["c"], "d"),
        ], schema=rst_schema)
        normalized = sigma.normalized_embedded(rst_schema)
        assert len(normalized) == 1 and len(normalized.egds()) == 1

    def test_normalized_embedded_keeps_explicit_schema(self, rst_schema):
        """An explicitly passed schema must end up on the result, so the
        normalized set validates and classifies without re-threading it."""
        bare = DependencySet([FunctionalDependency("R", ["a"], "b")])
        normalized = bare.normalized_embedded(rst_schema)
        assert normalized.schema is rst_schema
        normalized.validate()  # must not raise "no schema available"
        assert normalized.classify(rst_schema) is DependencyClass.EMBEDDED


# ---------------------------------------------------------------------------
# DependencySet integration
# ---------------------------------------------------------------------------


class TestDependencySetWithEmbedded:
    def test_classify_and_views(self, rst_schema):
        tgd = TGD([Conjunct("R", [x("u"), x("v")])],
                  [Conjunct("S", [x("v"), x("w")])])
        egd = EGD([Conjunct("S", [x("u"), x("v")]),
                   Conjunct("S", [x("u"), x("w")])], x("v"), x("w"))
        sigma = DependencySet([tgd, egd], schema=rst_schema)
        assert sigma.classify(rst_schema) is DependencyClass.EMBEDDED
        assert sigma.has_embedded()
        assert sigma.tgds() == [tgd] and sigma.egds() == [egd]
        assert sigma.embedded_dependencies() == [tgd, egd]
        assert not sigma.is_fd_only() and not sigma.is_ind_only()
        assert not sigma.supports_exact_containment(rst_schema)
        assert not sigma.is_finitely_controllable(rst_schema)

    def test_egd_only_set_is_not_fd_only(self, rst_schema):
        """An EGD-only Σ must not slip into the FD-only fast path."""
        egd = EGD([Conjunct("S", [x("u"), x("v")]),
                   Conjunct("S", [x("u"), x("w")])], x("v"), x("w"))
        sigma = DependencySet([egd], schema=rst_schema)
        assert not sigma.is_fd_only()
        assert sigma.classify(rst_schema) is DependencyClass.EMBEDDED

    def test_max_width_counts_tgd_frontiers(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("u"), x("v")])]),
            InclusionDependency("R", ["a"], "S", ["c"]),
        ], schema=rst_schema)
        assert sigma.max_ind_width() == 1
        assert sigma.max_width() == 2

    def test_fingerprint_stable_and_order_insensitive(self, rst_schema):
        tgd = TGD([Conjunct("R", [x("u"), x("v")])],
                  [Conjunct("S", [x("v"), x("w")])])
        egd = EGD([Conjunct("S", [x("u"), x("v")]),
                   Conjunct("S", [x("u"), x("w")])], x("v"), x("w"))
        one = DependencySet([tgd, egd], schema=rst_schema)
        other = DependencySet([egd, tgd], schema=rst_schema)
        assert one == other
        assert one.fingerprint() == other.fingerprint()
        assert one.fingerprint() != DependencySet([tgd], schema=rst_schema).fingerprint()

    def test_describe_tags_kinds(self, rst_schema):
        sigma = DependencySet([
            FunctionalDependency("R", ["a"], "b"),
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
            EGD([Conjunct("S", [x("u"), x("v")]),
                 Conjunct("S", [x("u"), x("w")])], x("v"), x("w")),
        ], schema=rst_schema)
        text = sigma.describe()
        assert "TGD" in text and "EGD" in text and "FD" in text


# ---------------------------------------------------------------------------
# Termination analysis
# ---------------------------------------------------------------------------


class TestEmbeddedTermination:
    def test_layered_tgds_are_weakly_acyclic(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
            TGD([Conjunct("S", [x("u"), x("v")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        report = analyse_termination(sigma, rst_schema)
        assert report.weakly_acyclic and report.witness_cycle is None
        assert chase_guaranteed_finite(sigma, rst_schema)

    def test_self_feeding_tgd_is_not(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("R", [x("v"), x("w")])]),
        ], schema=rst_schema)
        report = analyse_termination(sigma, rst_schema)
        assert not report.weakly_acyclic
        assert report.witness_cycle is not None
        assert not chase_guaranteed_finite(sigma, rst_schema)

    def test_full_tgds_never_threaten_termination(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("R", [x("v"), x("u")])]),
        ], schema=rst_schema)
        assert analyse_termination(sigma, rst_schema).weakly_acyclic

    def test_egd_only_sets_always_terminate(self, rst_schema):
        sigma = DependencySet([
            EGD([Conjunct("S", [x("u"), x("v")]),
                 Conjunct("S", [x("u"), x("w")])], x("v"), x("w")),
        ], schema=rst_schema)
        assert chase_guaranteed_finite(sigma, rst_schema)

    def test_position_graph_matches_ind_normalization(self, rst_schema):
        """An IND and its as_tgd form induce the same edges."""
        ind = InclusionDependency("R", [2], "S", [1])
        as_inds = dependency_position_graph(
            DependencySet([ind], schema=rst_schema), rst_schema)
        as_tgds = dependency_position_graph(
            DependencySet([ind.as_tgd(rst_schema)], schema=rst_schema), rst_schema)
        assert set(as_inds.edges) == set(as_tgds.edges)

    def test_analysis_agrees_with_figure1(self, figure1):
        report = analyse_termination(figure1.dependencies,
                                     figure1.query.input_schema)
        assert not report.weakly_acyclic


# ---------------------------------------------------------------------------
# Chasing with TGDs and EGDs
# ---------------------------------------------------------------------------


class TestEmbeddedChase:
    def test_tgd_chain_saturates_and_engines_agree(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
            TGD([Conjunct("S", [x("u"), x("v")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        for variant in (ChaseVariant.RESTRICTED, ChaseVariant.OBLIVIOUS):
            columnar, legacy = chase_both_engines(query, sigma, variant=variant)
            assert_same_chase(columnar, legacy)
            assert columnar.saturated
            relations = [node.relation for node in columnar.graph]
            assert relations == ["R", "S", "T"]
            assert columnar.statistics.tgd_steps == 2

    def test_multi_atom_body_joins(self, rst_schema):
        """A two-atom body fires only when the join value matches."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")]), Conjunct("S", [x("v"), x("w")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        joined = parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema)
        columnar, legacy = chase_both_engines(joined, sigma)
        assert_same_chase(columnar, legacy)
        assert columnar.saturated and len(columnar) == 3
        assert [n.relation for n in columnar.graph][-1] == "T"

        disjoint = parse_query("Q(a) :- R(a, b), S(c, d)", rst_schema)
        columnar, legacy = chase_both_engines(disjoint, sigma)
        assert_same_chase(columnar, legacy)
        assert columnar.saturated and len(columnar) == 2  # trigger never fires

    def test_shared_existential_creates_one_ndv(self, rst_schema):
        """One head existential used twice denotes a single fresh value."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("u"), x("w")]), Conjunct("T", [x("w"), x("v")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma)
        assert_same_chase(columnar, legacy)
        nodes = list(columnar.graph)
        assert [node.relation for node in nodes] == ["R", "S", "T"]
        s_node, t_node = nodes[1], nodes[2]
        assert s_node.conjunct.terms[1] == t_node.conjunct.terms[0]
        assert columnar.statistics.tgd_steps == 1  # one trigger, two conjuncts

    def test_r_chase_skips_satisfied_heads(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("u"), x("v")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b), S(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma)
        assert_same_chase(columnar, legacy)
        assert columnar.saturated and len(columnar) == 2
        assert columnar.statistics.tgd_steps == 0

    def test_o_chase_redundant_verbatim_head(self, rst_schema):
        """The O-chase applies a full TGD whose head exists verbatim once."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("u"), x("v")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b), S(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma,
                                             variant=ChaseVariant.OBLIVIOUS)
        assert_same_chase(columnar, legacy)
        assert columnar.saturated and len(columnar) == 2
        assert columnar.statistics.redundant_tgd_applications == 1
        assert columnar.statistics.total_steps == len(columnar.trace)

    def test_egd_merges_like_fd(self, rst_schema):
        fd_sigma = DependencySet([FunctionalDependency("S", ["c"], "d")],
                                 schema=rst_schema)
        egd_sigma = DependencySet(
            [FunctionalDependency("S", ["c"], "d").as_egd(rst_schema)],
            schema=rst_schema)
        query = parse_query("Q(a) :- S(a, b), S(a, c), R(b, c)", rst_schema)
        fd_result, _ = chase_both_engines(query, fd_sigma)
        egd_columnar, egd_legacy = chase_both_engines(query, egd_sigma)
        assert_same_chase(egd_columnar, egd_legacy)
        assert egd_columnar.statistics.egd_steps == 1
        assert ([c.terms for c in fd_result.conjuncts()]
                == [c.terms for c in egd_columnar.conjuncts()])
        assert fd_result.summary_row == egd_columnar.summary_row

    def test_egd_constant_clash_fails_with_prefix_stats(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("u"), x("v")])]),
            EGD([Conjunct("S", [x("u"), x("v")]),
                 Conjunct("S", [x("u"), x("w")])], x("v"), x("w")),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(1, 2), S(1, 3), R(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma, max_level=4)
        assert columnar.failed and legacy.failed
        for result in (columnar, legacy):
            assert result.failure_dependency == "S(u, v), S(u, w) -> v = w"
            assert result.failure_live_conjuncts == 4
            assert result.statistics.max_level_reached == 1
            assert result.conjuncts() == []

    def test_level_budget_truncates_tgd_chase(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("R", [x("v"), x("w")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma, max_level=3)
        assert_same_chase(columnar, legacy)
        assert columnar.truncated and not columnar.saturated
        assert columnar.max_level() == 3

    def test_mixed_ind_and_tgd_selection_is_deterministic(self, rst_schema):
        sigma = DependencySet([
            InclusionDependency("R", ["b"], "S", ["c"]),
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        for variant in (ChaseVariant.RESTRICTED, ChaseVariant.OBLIVIOUS):
            columnar, legacy = chase_both_engines(query, sigma, variant=variant)
            assert_same_chase(columnar, legacy)
            assert columnar.saturated
            # The IND fires before the TGD on the same source node.
            assert [n.relation for n in columnar.graph] == ["R", "S", "T"]

    def test_seeded_generator_sweep_differential(self):
        """Random weakly-acyclic Σ: both engines agree, chases saturate."""
        for seed in range(12):
            schema = SchemaGenerator(seed=seed).uniform(4, 3)
            generator = EmbeddedDependencyGenerator(schema, seed=seed)
            sigma = generator.weakly_acyclic(3, egd_count=1)
            assert analyse_termination(sigma, schema).weakly_acyclic
            query = parse_query("Q(v) :- R1(v, b, c)", schema)
            columnar, legacy = chase_both_engines(query, sigma,
                                                 max_conjuncts=2_000)
            assert_same_chase(columnar, legacy)
            assert columnar.saturated or columnar.failed


# ---------------------------------------------------------------------------
# Containment over embedded Σ
# ---------------------------------------------------------------------------


class TestEmbeddedContainment:
    def test_weakly_acyclic_tgds_get_exact_verdicts(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
        ], schema=rst_schema)
        solver = Solver()
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema)
        positive = solver.is_contained(query, query_prime, sigma)
        assert positive.holds and positive.certain
        negative = solver.is_contained(
            query, parse_query("Q(a) :- T(a, b)", rst_schema), sigma)
        assert not negative.holds and negative.certain

    def test_non_weakly_acyclic_keeps_uncertain_negative(self, rst_schema):
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("R", [x("v"), x("w")])]),
        ], schema=rst_schema)
        solver = Solver()
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema)
        result = solver.is_contained(query, query_prime, sigma)
        assert not result.holds and not result.certain

    def test_explicit_level_bound_restores_bound_semantics(self, rst_schema):
        """An explicit bound wins over the termination certificate: the
        chase stops at level 1 (before the T atom appears at level 2) and
        the answer is an uncertain negative again."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
            TGD([Conjunct("S", [x("u"), x("v")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        solver = Solver()
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), T(b, c)", rst_schema)
        unbounded = solver.is_contained(query, query_prime, sigma)
        assert unbounded.holds and unbounded.certain  # T appears at level 2
        bounded = solver.is_contained(query, query_prime, sigma, level_bound=1)
        assert not bounded.holds and not bounded.certain

    def test_certify_termination_off_still_sound(self, rst_schema):
        """With certification disabled, saturation within the bound still
        yields an exact answer — the knob only forfeits the deepening."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
        ], schema=rst_schema)
        solver = Solver(SolverConfig(certify_termination=False))
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        negative = solver.is_contained(
            query, parse_query("Q(a) :- T(a, b)", rst_schema), sigma)
        assert not negative.holds and negative.certain
        assert "saturated" in negative.reason

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ind_set_and_tgd_normalization_verdicts_agree(self, engine):
        """Acceptance: Σ as FDs+INDs vs the same Σ as TGDs/EGDs."""
        for seed in range(8):
            schema = SchemaGenerator(seed=seed).uniform(3, 3)
            inds, tgds = EmbeddedDependencyGenerator(
                schema, seed=seed).ind_expressible(3)
            solver = Solver(SolverConfig(chase_engine=engine))
            query = parse_query("Q(v) :- R1(v, b, c)", schema)
            query_prime = parse_query("Q(v) :- R1(v, b, c), R2(d, e, f)", schema)
            for q, qp in ((query, query_prime), (query_prime, query)):
                native = solver.is_contained(q, qp, inds)
                embedded = solver.is_contained(q, qp, tgds)
                assert native.holds == embedded.holds
                assert native.certain and embedded.certain

    def test_fd_set_and_egd_normalization_verdicts_agree(self, rst_schema):
        fds = DependencySet([FunctionalDependency("S", ["c"], "d")],
                            schema=rst_schema)
        egds = fds.normalized_embedded(rst_schema)
        solver = Solver()
        query = parse_query("Q(a) :- S(a, b), S(a, c), R(b, c)", rst_schema)
        query_prime = parse_query("Q(a) :- S(a, b), R(b, b)", rst_schema)
        native = solver.is_contained(query, query_prime, fds)
        embedded = solver.is_contained(query, query_prime, egds)
        assert native.holds and embedded.holds
        assert native.certain and embedded.certain

    def test_saturation_level_cap_bounds_certified_deepening(self, rst_schema):
        """A cap below the saturation depth turns the certified exact
        answer back into an uncertain negative — the shared service uses
        this so one tenant cannot monopolise a shard."""
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
            TGD([Conjunct("S", [x("u"), x("v")])],
                [Conjunct("T", [x("u"), x("w")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), T(b, c)", rst_schema)
        capped = Solver(SolverConfig(saturation_level_cap=1)).is_contained(
            query, query_prime, sigma)
        assert not capped.holds and not capped.certain
        uncapped = Solver().is_contained(query, query_prime, sigma)
        assert uncapped.holds and uncapped.certain
        with pytest.raises(Exception):
            SolverConfig(saturation_level_cap=0)

    def test_certificates_are_refused_for_embedded_sigma(self, rst_schema):
        """Theorem 2 certificates replay IND applications; asking for one
        under a TGD Σ must fail loudly, not ship a proof that fails its
        own verify()."""
        from repro.exceptions import ReproError
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
        ], schema=rst_schema)
        solver = Solver()
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema)
        with pytest.raises(ReproError, match="certificate"):
            solver.is_contained(query, query_prime, sigma, with_certificate=True)
        # Without the certificate request the verdict is fine.
        assert solver.is_contained(query, query_prime, sigma).holds

    def test_full_round_trip_through_parser_and_solver(self, rst_schema):
        """Acceptance: parse → chase both engines → certain verdict."""
        deps_text = "\n".join([
            "R(u, v) -> S(v, w)",
            "S(u, v), S(u, w) -> v = w",
        ])
        sigma = parse_dependencies(deps_text, rst_schema)
        reparsed = parse_dependencies(
            "\n".join(str(d) for d in sigma), rst_schema)
        assert reparsed == sigma
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma)
        assert_same_chase(columnar, legacy)
        assert columnar.saturated
        result = Solver().is_contained(
            query, parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema), sigma)
        assert result.holds and result.certain


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


class TestEmbeddedGenerator:
    @pytest.mark.parametrize("seed", range(10))
    def test_weakly_acyclic_by_construction(self, seed):
        schema = SchemaGenerator(seed=seed).mixed(4, min_arity=2, max_arity=4)
        sigma = EmbeddedDependencyGenerator(schema, seed=seed).weakly_acyclic(
            4, egd_count=2)
        assert sigma.tgds() and sigma.egds()
        assert analyse_termination(sigma, schema).weakly_acyclic
        assert sigma.classify(schema) is DependencyClass.EMBEDDED
        sigma.validate(schema)

    @pytest.mark.parametrize("seed", range(10))
    def test_ind_expressible_pairs_match(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(4, 3)
        inds, tgds = EmbeddedDependencyGenerator(
            schema, seed=seed).ind_expressible(4)
        assert len(inds) == len(tgds.tgds()) == 4
        assert analyse_termination(inds, schema).weakly_acyclic
        assert analyse_termination(tgds, schema).weakly_acyclic
        assert tgds == inds.normalized_embedded(schema)

    def test_needs_two_relations(self):
        schema = DatabaseSchema.from_dict({"R": ["a", "b"]})
        with pytest.raises(ValueError):
            EmbeddedDependencyGenerator(schema)


# ---------------------------------------------------------------------------
# Serialization and the service path
# ---------------------------------------------------------------------------


class TestEmbeddedSerializationAndService:
    def test_dependency_dict_round_trip(self, rst_schema):
        tgd = TGD([Conjunct("R", [x("u"), Constant(7)])],
                  [Conjunct("S", [x("u"), x("w")])])
        egd = EGD([Conjunct("S", [x("u"), x("v")]),
                   Conjunct("S", [x("u"), x("w")])], x("v"), x("w"))
        for dependency in (tgd, egd):
            assert dependency_from_dict(dependency_to_dict(dependency)) == dependency
        sigma = DependencySet([tgd, egd], schema=rst_schema)
        rebuilt = dependency_set_from_dict(dependency_set_to_dict(sigma),
                                           schema=rst_schema)
        assert rebuilt == sigma

    def test_service_accepts_inline_tgd_deps(self):
        schema_text = "R(a, b)\nS(c, d)"
        solver = make_worker_solver()
        record = {
            "id": "tgd-1",
            "query": "Q(a) :- R(a, b)",
            "query_prime": "Q(a) :- R(a, b), S(b, c)",
            "schema": schema_text,
            "deps": "R(u, v) -> S(v, w)",
        }
        envelope = handle_record(record, solver)
        assert envelope["ok"], envelope
        assert envelope["result"]["holds"] and envelope["result"]["certain"]

    def test_service_chase_op_with_embedded_deps(self):
        schema_text = "R(a, b)\nS(c, d)"
        solver = make_worker_solver()
        envelope = handle_record(
            {"op": "chase", "query": "Q(a) :- R(a, b)",
             "schema": schema_text, "deps": "R(u, v) -> S(v, w)"},
            solver, ServiceDefaults())
        assert envelope["ok"], envelope
        assert envelope["result"]["saturated"]
        assert envelope["result"]["statistics"]["tgd_steps"] == 1

    def test_service_contain_respects_max_level_for_deepening(self):
        """The service's level ceiling caps the certified deepening too."""
        from repro.service.protocol import ServiceLimits
        schema_text = "R(a, b)\nS(c, d)\nT(e, f)"
        record = {
            "query": "Q(a) :- R(a, b)",
            "query_prime": "Qp(a) :- R(a, b), T(b, c)",
            "schema": schema_text,
            "deps": "R(u, v) -> S(v, w)\nS(u, v) -> T(u, w)",
        }
        capped = handle_record(dict(record, max_level=1), make_worker_solver(),
                               limits=ServiceLimits())
        assert capped["ok"]
        assert not capped["result"]["holds"] and not capped["result"]["certain"]
        free = handle_record(record, make_worker_solver(), limits=ServiceLimits())
        assert free["ok"]
        assert free["result"]["holds"] and free["result"]["certain"]

    def test_instance_violations_cover_embedded_rules(self, rst_schema):
        from repro.dependencies import check_database, database_satisfies
        from repro.relational.database import Database
        database = Database(rst_schema, {
            "R": [(1, 2)], "S": [(2, 5), (2, 6)], "T": [],
        })
        tgd_ok = TGD([Conjunct("R", [x("u"), x("v")])],
                     [Conjunct("S", [x("v"), x("w")])])
        tgd_bad = TGD([Conjunct("S", [x("u"), x("v")])],
                      [Conjunct("T", [x("u"), x("w")])])
        egd_bad = EGD([Conjunct("S", [x("u"), x("v")]),
                       Conjunct("S", [x("u"), x("w")])], x("v"), x("w"))
        assert database_satisfies(database, DependencySet([tgd_ok]))
        assert not database_satisfies(database, DependencySet([tgd_bad]))
        report = check_database(database, DependencySet([tgd_bad, egd_bad]))
        kinds = {type(v.dependency) for v in report}
        assert kinds == {TGD, EGD}
        assert any("no matching" in v.message for v in report)
        assert any("bind" in v.message for v in report)

    def test_finite_sampling_skips_repair_for_embedded_sets(self, rst_schema):
        """Sampling paths fall back to rejection filtering instead of
        crashing on the instance chase's embedded-Σ rejection."""
        from repro.containment.finite import finite_containment_sample
        from repro.dependencies import database_satisfies
        from repro.workloads import DatabaseGenerator
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- R(a, b)", rst_schema)
        query_prime = parse_query("Q(a) :- R(a, b), S(b, c)", rst_schema)
        report = finite_containment_sample(query, query_prime, sigma,
                                           exhaustive=False, samples=20,
                                           domain_size=2, seed=3)
        assert report.databases_generated == 20  # no ChaseError raised
        found = DatabaseGenerator(rst_schema, seed=1).satisfying(
            sigma, tuples_per_relation=1, domain_size=2, attempts=10)
        assert found is None or database_satisfies(found, sigma)

    def test_chase_instance_rejects_embedded_sets(self, rst_schema):
        from repro.chase.instance_chase import chase_instance
        from repro.exceptions import ChaseError
        from repro.relational.database import Database
        database = Database(rst_schema, {"R": [(1, 2)], "S": [], "T": []})
        sigma = DependencySet([
            TGD([Conjunct("R", [x("u"), x("v")])],
                [Conjunct("S", [x("v"), x("w")])]),
        ], schema=rst_schema)
        with pytest.raises(ChaseError):
            chase_instance(database, sigma)

    def test_cli_contain_with_embedded_deps(self, capsys, rst_schema):
        from repro.cli import main
        exit_code = main([
            "contain",
            "--schema", "R(a, b)\nS(c, d)\nT(e, f)",
            "--deps", "R(u, v) -> S(v, w)",
            "--query", "Q(a) :- R(a, b)",
            "--query-prime", "Q(a) :- R(a, b), S(b, c)",
            "--json",
        ])
        assert exit_code == 0
        import json
        document = json.loads(capsys.readouterr().out)
        assert document["holds"] and document["certain"]

    def test_parse_errors_are_reported_with_position(self):
        with pytest.raises(Exception) as excinfo:
            parse_dependency("R(x, y) ->")
        assert "expected" in str(excinfo.value)

    def test_parse_schema_smoke(self):
        schema = parse_schema("R(a, b)\nS(c, d)")
        sigma = parse_dependencies("R(u, v) -> S(v, w)", schema)
        assert sigma.tgds()[0].validate(schema) is None


# ---------------------------------------------------------------------------
# PR 8 regressions: merge-lowered heap levels, arity guards, unsafe EGDs
# ---------------------------------------------------------------------------


@pytest.fixture
def merge_heavy_schema() -> DatabaseSchema:
    return DatabaseSchema.from_dict({
        "R": ["a", "b"], "A": ["x"], "B": ["x"], "C": ["x"], "D": ["x"],
        "E": ["x"], "P": ["x"], "W": ["x"], "H": ["x"], "Z": ["x"],
    })


class TestMergeLoweredHeapLevels:
    def test_merge_lowered_level_reorders_pending_inds(self, merge_heavy_schema):
        """An EGD merge can *lower* a surviving node's level; IND/TGD heap
        entries pushed at the old (higher) level are then stale and must
        not decide application order.

        Here ``P`` first appears at a deep level, then an EGD merges it
        into a level-1 survivor.  With stale heap keys the ``P ⊆ Z``
        expansion still queues at the old deep level and fires after the
        ``D ⊆ H`` expansion; re-keyed on the live level it fires first.
        Both engines must agree node for node.
        """
        schema = merge_heavy_schema
        sigma = DependencySet([
            EGD([Conjunct("W", [x("a")]), Conjunct("R", [x("a"), x("b")])],
                x("a"), x("b")),
            EGD([Conjunct("P", [x("a")]), Conjunct("P", [x("b")])],
                x("a"), x("b")),
            TGD([Conjunct("A", [x("a")])], [Conjunct("B", [x("a")])]),
            TGD([Conjunct("B", [x("a")])], [Conjunct("C", [x("a")])]),
            TGD([Conjunct("C", [x("a")])], [Conjunct("D", [x("a")])]),
            TGD([Conjunct("C", [x("a")])], [Conjunct("P", [x("e")])]),
            TGD([Conjunct("R", [x("a"), x("a")])], [Conjunct("E", [x("a")])]),
            TGD([Conjunct("E", [x("a")])], [Conjunct("P", [x("a")])]),
            InclusionDependency("D", ["x"], "W", ["x"]),
            InclusionDependency("D", ["x"], "H", ["x"]),
            InclusionDependency("P", ["x"], "Z", ["x"]),
        ], schema=schema)
        query = parse_query("Q(u, v) :- R(u, v), A(u)", schema)
        columnar, legacy = chase_both_engines(
            query, sigma, variant=ChaseVariant.OBLIVIOUS, max_level=8)
        assert_same_chase(columnar, legacy)
        by_relation = {}
        for node in columnar.graph:
            by_relation.setdefault(node.relation, node)
        assert "Z" in by_relation and "H" in by_relation
        # The P node's level drops below D's after the merges, so the
        # P ⊆ Z expansion outranks D ⊆ H.  Stale insert-time heap keys
        # invert this order.
        assert by_relation["Z"].node_id < by_relation["H"].node_id
        assert columnar.statistics.merged_conjuncts > 0


class TestEmbeddedArityGuards:
    def test_unify_atom_rejects_arity_mismatch(self):
        from repro.chase.embedded_triggers import _unify_atom
        from repro.dependencies.violations import _Fact
        fact = _Fact("R", (1, 2))
        overlong = Conjunct("R", [x("u"), x("v"), x("w")])
        with pytest.raises(DependencyError, match="arity"):
            _unify_atom(overlong, fact, {})
        short = Conjunct("R", [x("u")])
        with pytest.raises(DependencyError, match="arity"):
            _unify_atom(short, fact, {})

    def test_tgd_violations_rejects_wrong_arity_rule(self, rst_schema):
        """Pre-guard, a 3-ary atom over binary R prefix-matched rows and
        reported a nonsense verdict; now the rule is rejected loudly."""
        from repro.dependencies.violations import tgd_violations
        from repro.relational.database import Database
        database = Database(rst_schema, {"R": [(1, 2)], "S": [], "T": []})
        bad = TGD([Conjunct("R", [x("u"), x("v"), x("z")])],
                  [Conjunct("S", [x("u"), x("w")])])
        with pytest.raises(DependencyError, match="arity"):
            tgd_violations(database, bad)

    def test_egd_violations_rejects_wrong_arity_rule(self, rst_schema):
        """Pre-guard this surfaced as a bare KeyError on the unbound
        trailing variable mid-scan."""
        from repro.dependencies.violations import egd_violations
        from repro.relational.database import Database
        database = Database(rst_schema, {"R": [], "S": [(2, 5), (2, 6)], "T": []})
        bad = EGD([Conjunct("S", [x("u"), x("v"), x("z")])], x("u"), x("z"))
        with pytest.raises(DependencyError, match="arity"):
            egd_violations(database, bad)

    def test_parser_rejects_wrong_arity_embedded_rules(self, rst_schema):
        with pytest.raises(DependencyError, match="arity"):
            parse_dependencies("R(u, v, z) -> S(v, w)", rst_schema)
        with pytest.raises(DependencyError, match="arity"):
            parse_dependencies("S(u, v, z), S(u, w, y) -> v = w", rst_schema)

    def test_service_rejects_wrong_arity_deps(self):
        record = {
            "query": "Q(a) :- R(a, b)",
            "query_prime": "Q(a) :- R(a, b), S(b, c)",
            "schema": "R(a, b)\nS(c, d)",
            "deps": "R(u, v, z) -> S(v, w)",
        }
        envelope = handle_record(record, make_worker_solver())
        assert not envelope["ok"]
        assert "arity" in envelope["error"]["message"]


class TestUnsafeEGDRejection:
    def test_construction_rejects_equated_variable_outside_body(self):
        body = [Conjunct("S", [x("u"), x("v")])]
        with pytest.raises(DependencyError, match="does not occur in its body"):
            EGD(body, x("q"), x("v"))
        with pytest.raises(DependencyError, match="does not occur in its body"):
            EGD(body, x("u"), x("q"))

    def test_find_egd_trigger_never_sees_unsafe_egd(self, rst_schema):
        """The chase can therefore assume every EGD binds both sides —
        an unsafe rule cannot reach trigger discovery as a bare KeyError."""
        sigma = DependencySet([
            EGD([Conjunct("S", [x("u"), x("v")]),
                 Conjunct("S", [x("u"), x("w")])], x("v"), x("w")),
        ], schema=rst_schema)
        query = parse_query("Q(a) :- S(a, b), S(a, c)", rst_schema)
        columnar, legacy = chase_both_engines(query, sigma)
        assert_same_chase(columnar, legacy)
        assert columnar.statistics.egd_steps == 1


# ---------------------------------------------------------------------------
# Differential sweep: the semi-naive columnar engine vs the legacy reference
# ---------------------------------------------------------------------------


class TestSemiNaiveDifferentialSweep:
    def test_fifty_case_sweep_agrees_node_for_node(self):
        """50 seeded weakly-acyclic workloads (merge-heavy 2-EGD variants
        included): the semi-naive columnar engine stays node-for-node
        identical to the full-rescan legacy reference."""
        from repro.containment.serialization import chase_result_to_dict
        cases = 0
        delta_matches = 0
        cache_hits = 0
        merges = 0
        for seed in range(25):
            schema = SchemaGenerator(seed=seed).uniform(4, 3)
            generator = EmbeddedDependencyGenerator(schema, seed=seed)
            # The 2-EGD variant chases a self-join query so the generated
            # equality rules actually find mergeable pairs.
            for egd_count, query_text in (
                    (1, "Q(v) :- R1(v, b, c)"),
                    (2, "Q(v) :- R1(v, b, c), R1(v, d, e), R2(b, d, f)")):
                query = parse_query(query_text, schema)
                sigma = generator.weakly_acyclic(3, egd_count=egd_count)
                assert analyse_termination(sigma, schema).weakly_acyclic
                columnar, legacy = chase_both_engines(query, sigma,
                                                     max_conjuncts=2_000)
                assert_same_chase(columnar, legacy)
                assert columnar.saturated or columnar.failed
                cases += 1
                statistics = columnar.statistics
                delta_matches += statistics.delta_seeded_matches
                cache_hits += statistics.trigger_cache_hits
                merges += statistics.merged_conjuncts
                document = chase_result_to_dict(columnar)["statistics"]
                for key, value in document.items():
                    assert value == getattr(statistics, key)
        assert cases >= 50
        # The semi-naive machinery must actually engage across the sweep.
        assert delta_matches > 0
        assert cache_hits >= 0  # tiny workloads may saturate in one round
        assert merges > 0  # the 2-EGD workloads exercise the merge paths

    def test_deep_workload_exercises_caches(self):
        """Two parallel chains of two-atom-head TGDs — rules the columnar
        engine routes through the semi-naive trigger index rather than
        its pending heap — must drive both counters (delta-seeded matches
        and trigger cache hits), with the legacy reference still agreeing
        node for node."""
        depth = 6
        schema = DatabaseSchema.from_dict({
            f"{prefix}{level}": ["x", "y"]
            for prefix in "ABS" for level in range(depth + 1)})
        sigma = DependencySet([
            TGD([Conjunct(f"{prefix}{level}", [x("u"), x("v")])],
                [Conjunct(f"{prefix}{level + 1}", [x("v"), x("w")]),
                 Conjunct(f"S{level + 1}", [x("w"), x("u")])])
            for prefix in "AB" for level in range(depth)], schema=schema)
        query = parse_query("Q(a) :- A0(a, b), B0(a, c)", schema)
        for variant in (ChaseVariant.RESTRICTED, ChaseVariant.OBLIVIOUS):
            columnar, legacy = chase_both_engines(query, sigma, variant=variant)
            assert_same_chase(columnar, legacy)
            assert columnar.saturated and len(columnar) == 2 + 4 * depth
            statistics = columnar.statistics
            assert statistics.delta_seeded_matches > 0
            assert statistics.trigger_cache_hits > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_containment_verdicts_agree_between_engines(self, seed):
        schema = SchemaGenerator(seed=seed).uniform(4, 3)
        sigma = EmbeddedDependencyGenerator(schema, seed=seed).weakly_acyclic(
            3, egd_count=1)
        query = parse_query("Q(v) :- R1(v, b, c)", schema)
        query_prime = parse_query("Q(v) :- R1(v, b, c), R2(d, e, f)", schema)
        verdicts = {}
        for engine in ENGINES:
            solver = Solver(SolverConfig(chase_engine=engine))
            for direction, (q, qp) in enumerate(
                    ((query, query_prime), (query_prime, query))):
                result = solver.is_contained(q, qp, sigma)
                verdicts.setdefault(direction, []).append(
                    (result.holds, result.certain))
        for direction, outcomes in verdicts.items():
            assert outcomes[0] == outcomes[1], (seed, direction)
