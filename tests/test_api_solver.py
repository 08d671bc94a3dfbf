"""Tests for the ``repro.api`` Solver facade and its satellites.

Covers the contract the API redesign promises: SolverConfig defaults
mirror the legacy keyword defaults, ``solve_many`` equals sequential
``solve``, cache hits return the identical result object, the legacy
module-level functions keep their signatures, DependencySet classification
is memoised with a stable fingerprint, and the ``repro batch`` / ``--json``
CLI surfaces produce machine-readable output.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.api import (
    ChaseRequest,
    ContainmentRequest,
    OptimizeRequest,
    Solver,
    SolverConfig,
    dependency_fingerprint,
    query_fingerprint,
)
from repro.api.config import LEGACY_CONTAINMENT_KWARGS
from repro.chase.engine import (
    ChaseConfig,
    ChaseVariant,
    build_engine,
    chase,
    o_chase,
    r_chase,
)
from repro.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, main
from repro.containment.decision import contains, is_contained
from repro.containment.equivalence import minimize_under
from repro.dependencies.dependency_set import DependencyClass, DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.exceptions import ReproError
from repro.optimizer.pipeline import optimize
from repro.workloads.paper_examples import (
    intro_example,
    intro_example_key_based,
    section4_example,
)

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)\n"
DEPS_TEXT = "EMP[dept] <= DEP[dept]\n"


def paper_workload_pairs():
    """All containment questions the paper-examples workload defines.

    Every (Q, Q') ordered pair that shares an interface, under each
    example's dependency set — the workload the batch benchmark and the
    equivalence test below both run.
    """
    pairs = []
    for example in (intro_example(), intro_example_key_based(), section4_example()):
        for query, query_prime in ((example.q1, example.q2), (example.q2, example.q1)):
            pairs.append((query, query_prime, example.dependencies))
            pairs.append((query, query_prime, None))
    return pairs


class TestSolverConfig:
    def test_defaults_mirror_legacy_containment_kwargs(self):
        """SolverConfig's defaults are the historical is_contained defaults,
        and every legacy keyword survives on the wrapper as a None sentinel
        (None = defer to the session config)."""
        config = SolverConfig()
        assert config.variant is ChaseVariant.RESTRICTED
        assert config.level_bound is None
        assert config.max_conjuncts == 20_000
        assert config.record_trace is False
        assert config.with_certificate is False
        assert config.deepening is True
        signature = inspect.signature(is_contained)
        for name in LEGACY_CONTAINMENT_KWARGS:
            assert name in signature.parameters, f"legacy kwarg {name} disappeared"
            assert signature.parameters[name].default is None

    def test_chase_defaults_mirror_chase_config(self):
        config = SolverConfig()
        legacy = ChaseConfig()
        assert config.chase_max_conjuncts == legacy.max_conjuncts
        assert config.chase_max_level == legacy.max_level
        assert config.chase_max_steps == legacy.max_steps
        assert config.chase_record_trace == legacy.record_trace

    def test_frozen_and_derivable(self):
        config = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_conjuncts = 5
        derived = config.derive(max_conjuncts=7_000, deepening=False)
        assert derived.max_conjuncts == 7_000 and not derived.deepening
        assert config.max_conjuncts == 20_000 and config.deepening

    def test_with_legacy_kwargs_rejects_unknown_options(self):
        with pytest.raises(TypeError, match="unexpected containment option"):
            SolverConfig().with_legacy_kwargs(max_conjncts=5)

    def test_variant_accepts_letter_shorthand(self):
        assert SolverConfig(variant="O").variant is ChaseVariant.OBLIVIOUS
        assert SolverConfig(variant="R").variant is ChaseVariant.RESTRICTED

    def test_validation(self):
        with pytest.raises(ReproError):
            SolverConfig(max_conjuncts=0)
        with pytest.raises(ReproError):
            SolverConfig(level_bound=-1)
        with pytest.raises(ReproError):
            SolverConfig(parallelism=0)
        with pytest.raises(ReproError):
            SolverConfig(executor="rocket")
        with pytest.raises(ReproError):
            SolverConfig(containment_cache_size=-1)


class TestSolverContainment:
    def test_solve_matches_legacy_is_contained(self, intro):
        solver = Solver()
        for query, query_prime, sigma in paper_workload_pairs():
            response = solver.solve(ContainmentRequest(query, query_prime, sigma))
            legacy = is_contained(query, query_prime, sigma)
            assert response.holds == legacy.holds
            assert response.certain == legacy.certain
            assert response.result.method == legacy.method

    def test_cache_hit_returns_identical_result(self, intro):
        solver = Solver()
        first = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        second = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        assert not first.cache_hit and second.cache_hit
        assert second.result is first.result
        info = solver.cache_info()["containment"]
        assert info.hits == 1 and info.misses == 1

    def test_config_changes_split_the_cache(self, intro):
        solver = Solver()
        restricted = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        oblivious = solver.solve(ContainmentRequest(
            intro.q2, intro.q1, intro.dependencies,
            config=solver.config.derive(variant=ChaseVariant.OBLIVIOUS)))
        assert not oblivious.cache_hit
        assert restricted.holds == oblivious.holds

    def test_certificates_are_never_cached(self, intro):
        solver = Solver()
        config = solver.config.derive(with_certificate=True)
        first = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies,
                                                config=config))
        second = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies,
                                                 config=config))
        assert not first.cache_hit and not second.cache_hit
        assert first.result is not second.result
        assert first.result.certificate.verify()
        assert second.result.certificate.verify()

    def test_zero_cache_size_disables_caching(self, intro):
        solver = Solver(SolverConfig(containment_cache_size=0, chase_cache_size=0))
        first = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        second = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        assert not first.cache_hit and not second.cache_hit

    def test_budget_usage_reported(self, intro):
        solver = Solver()
        response = solver.solve(ContainmentRequest(intro.q2, intro.q1, intro.dependencies))
        assert response.budget.chase_size == response.result.chase_size
        assert response.budget.max_conjuncts == solver.config.max_conjuncts
        assert 0.0 < response.budget.conjunct_utilisation < 1.0
        assert response.elapsed_s >= 0.0

    def test_chase_request_and_cache(self, figure1):
        solver = Solver()
        request = ChaseRequest(figure1.query, figure1.dependencies, max_level=3)
        first = solver.solve(request)
        second = solver.solve(request)
        assert not first.cache_hit and second.cache_hit
        assert second.result is first.result
        assert first.result.max_level() == 3

    def test_optimize_request(self, intro):
        solver = Solver()
        response = solver.solve(OptimizeRequest(intro.q1, intro.dependencies))
        assert response.report.conjuncts_removed == 1
        assert len(response.report.optimized) == 1

    def test_optimize_cache_hit_reported_like_other_ops(self, intro):
        # optimize has no dedicated cache, but its internal containment
        # checks do; a warm re-run is all hits and the response says so
        # instead of hardcoding cache_hit=False.
        solver = Solver()
        cold = solver.solve(OptimizeRequest(intro.q1, intro.dependencies))
        warm = solver.solve(OptimizeRequest(intro.q1, intro.dependencies))
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.report.conjuncts_removed == cold.report.conjuncts_removed

    def test_optimize_request_config_governs_containment_checks(self, intro):
        solver = Solver()
        # A one-conjunct budget starves the join-elimination containment
        # check, so the redundant DEP atom cannot be proven removable.
        starved = solver.solve(OptimizeRequest(
            intro.q1, intro.dependencies,
            config=solver.config.derive(max_conjuncts=1)))
        assert starved.report.conjuncts_removed == 0

    def test_optimize_certifies_under_the_request_config(self, intro, monkeypatch):
        # The request sets fields the legacy containment keywords cannot
        # carry (engine, termination certification, level cap); every
        # join-elimination check must still run under them.
        decided = []
        decide = Solver._decide

        def spy_decide(self, query, query_prime, dependencies, config):
            decided.append(config)
            return decide(self, query, query_prime, dependencies, config)

        monkeypatch.setattr(Solver, "_decide", spy_decide)
        request_config = SolverConfig(chase_engine="legacy", certify_termination=False,
                                      saturation_level_cap=3)
        response = Solver().solve(OptimizeRequest(
            intro.q1, intro.dependencies, config=request_config))
        assert response.report.conjuncts_removed == 1
        assert decided
        assert all(config.containment_key() == request_config.containment_key()
                   for config in decided)

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ReproError, match="unknown request type"):
            Solver().solve(object())


class TestSolveMany:
    def _requests(self):
        return [
            ContainmentRequest(query, query_prime, sigma, tag=str(index))
            for index, (query, query_prime, sigma) in enumerate(paper_workload_pairs())
        ]

    def test_solve_many_equals_sequential_solve(self):
        batch_solver, sequential_solver = Solver(), Solver()
        batched = batch_solver.solve_many(self._requests())
        sequential = [sequential_solver.solve(request) for request in self._requests()]
        assert len(batched) == len(sequential)
        for batch_response, solo_response in zip(batched, sequential):
            assert batch_response.holds == solo_response.holds
            assert batch_response.certain == solo_response.certain
            assert batch_response.result.method == solo_response.result.method

    def test_thread_parallelism_preserves_order_and_results(self):
        solver = Solver()
        serial = Solver().solve_many(self._requests(), executor="serial")
        threaded = solver.solve_many(self._requests(), parallelism=4, executor="thread")
        assert [r.tag for r in threaded] == [r.tag for r in serial]
        assert [r.holds for r in threaded] == [r.holds for r in serial]

    def test_solve_many_warm_run_is_all_cache_hits(self):
        solver = Solver()
        cold = solver.solve_many(self._requests())
        warm = solver.solve_many(self._requests())
        # The workload repeats some questions (intro and key-based intro
        # share queries when Σ is dropped), so the cold run may already hit;
        # but the first question is always a miss and the warm run never is.
        assert not cold[0].cache_hit
        assert all(response.cache_hit for response in warm)
        assert [r.holds for r in warm] == [r.holds for r in cold]

    def test_process_executor_matches_serial(self, intro):
        solver = Solver()
        requests = [
            ContainmentRequest(intro.q2, intro.q1, intro.dependencies, tag=str(i))
            for i in range(3)
        ]
        serial = Solver().solve_many(requests, executor="serial")
        processed = solver.solve_many(requests, parallelism=2, executor="process")
        assert [r.tag for r in processed] == [r.tag for r in serial]
        assert [r.holds for r in processed] == [r.holds for r in serial]

    def test_contains_all_pairs_matches_per_call(self, intro):
        solver = Solver()
        queries = (intro.q1, intro.q2)
        pairwise = solver.contains_all_pairs(queries, intro.dependencies)
        for i in range(len(queries)):
            for j in range(len(queries)):
                if i == j:
                    continue
                solo = is_contained(queries[i], queries[j], intro.dependencies)
                assert pairwise.holds(i, j) == solo.holds
        assert pairwise.equivalent_pairs() == [(0, 1)]
        assert "Q1" in pairwise.describe()


class TestLegacyWrappers:
    def test_is_contained_signature_unchanged(self):
        parameters = inspect.signature(is_contained).parameters
        assert list(parameters) == [
            "query", "query_prime", "dependencies", "variant", "level_bound",
            "max_conjuncts", "record_trace", "with_certificate", "deepening",
        ]
        assert parameters["max_conjuncts"].default is None   # sentinel: session config
        assert parameters["deepening"].default is None

    def test_chase_wrapper_signatures_unchanged(self):
        assert list(inspect.signature(chase).parameters) == [
            "query", "dependencies", "config"]
        assert list(inspect.signature(r_chase).parameters) == [
            "query", "dependencies", "max_level", "max_conjuncts", "record_trace"]
        assert list(inspect.signature(o_chase).parameters) == [
            "query", "dependencies", "max_level", "max_conjuncts", "record_trace"]

    def test_optimize_and_minimize_accept_legacy_calls(self, intro):
        report = optimize(intro.q1, intro.dependencies)
        assert report.conjuncts_removed == 1
        minimal = minimize_under(intro.q1, intro.dependencies)
        assert len(minimal) == 1

    def test_contains_boolean_form(self, intro):
        assert contains(intro.q2, intro.q1, intro.dependencies)
        assert not contains(intro.q2, intro.q1)

    def test_legacy_chase_serves_cached_result(self, figure1):
        config = ChaseConfig(max_level=2)
        first = chase(figure1.query, figure1.dependencies, config)
        second = chase(figure1.query, figure1.dependencies, config)
        assert second is first
        # Direct engine construction always runs fresh.
        fresh = build_engine(figure1.query, figure1.dependencies, config).run()
        assert fresh is not first
        assert len(fresh) == len(first)

    def test_solver_methods_match_wrappers(self, intro):
        solver = Solver()
        assert solver.is_contained(intro.q2, intro.q1, intro.dependencies).holds
        assert solver.optimize(intro.q1, intro.dependencies).conjuncts_removed == 1
        assert len(solver.minimize_under(intro.q1, intro.dependencies)) == 1

    def test_solver_chase_honours_session_chase_knobs(self, figure1):
        solver = Solver(SolverConfig(chase_max_conjuncts=3, chase_record_trace=False))
        result = solver.chase(figure1.query, figure1.dependencies)
        assert result.hit_conjunct_budget
        assert len(result.trace) == 0

    def test_solver_minimize_uses_own_caches(self, intro):
        solver = Solver()
        solver.minimize_under(intro.q1, intro.dependencies)
        assert solver.stats.containment_requests > 0

    def test_configured_default_solver_governs_legacy_defaults(self, intro):
        from repro.api import reset_default_solver, set_default_solver
        try:
            probe = Solver(SolverConfig(record_trace=True))
            set_default_solver(probe)
            # Defaulted kwargs defer to the installed solver's config...
            result = is_contained(intro.q2, intro.q1, intro.dependencies)
            assert result.holds
            cold_misses = probe.cache_info()["containment"].misses
            # ...so the same question asked through the solver's own config
            # hits the same cache entry,
            assert probe.is_contained(intro.q2, intro.q1, intro.dependencies,
                                      record_trace=True) is result
            # while an explicitly passed kwarg still overrides the session
            # config per call (a fresh cache entry is computed).
            divergent = is_contained(intro.q2, intro.q1, intro.dependencies,
                                     max_conjuncts=10_000)
            assert divergent is not result
            assert probe.cache_info()["containment"].misses == cold_misses + 1
        finally:
            reset_default_solver()


class TestDependencySetSatellite:
    def _sigma(self, schema):
        return DependencySet(
            [
                FunctionalDependency("DEP", ["dept"], "loc"),
                InclusionDependency("EMP", ["dept"], "DEP", ["dept"]),
            ],
            schema=schema,
        )

    def test_classify_is_memoised(self, emp_dep_schema, monkeypatch):
        sigma = self._sigma(emp_dep_schema)
        calls = {"count": 0}
        original = DependencySet._classify_uncached

        def counting(self, target):
            calls["count"] += 1
            return original(self, target)

        monkeypatch.setattr(DependencySet, "_classify_uncached", counting)
        first = sigma.classify(emp_dep_schema)
        second = sigma.classify(emp_dep_schema)
        assert first is second
        assert calls["count"] == 1

    def test_classify_cache_invalidated_by_add(self, emp_dep_schema):
        sigma = DependencySet(
            [InclusionDependency("EMP", ["dept"], "DEP", ["dept"])],
            schema=emp_dep_schema)
        assert sigma.classify(emp_dep_schema) is DependencyClass.IND_ONLY
        sigma.add(FunctionalDependency("EMP", ["emp"], "sal"))
        assert sigma.classify(emp_dep_schema) is not DependencyClass.IND_ONLY

    def test_fingerprint_stable_across_insertion_order(self, emp_dep_schema):
        fd = FunctionalDependency("DEP", ["dept"], "loc")
        ind = InclusionDependency("EMP", ["dept"], "DEP", ["dept"])
        forward = DependencySet([fd, ind], schema=emp_dep_schema)
        backward = DependencySet([ind, fd], schema=emp_dep_schema)
        assert forward == backward
        assert forward.fingerprint() == backward.fingerprint()

    def test_fingerprint_changes_with_content(self, emp_dep_schema):
        sigma = DependencySet(schema=emp_dep_schema)
        empty = sigma.fingerprint()
        sigma.add(InclusionDependency("EMP", ["dept"], "DEP", ["dept"]))
        assert sigma.fingerprint() != empty
        assert DependencySet(schema=emp_dep_schema).fingerprint() == empty

    def test_query_fingerprints(self, intro):
        assert query_fingerprint(intro.q1) != query_fingerprint(intro.q2)
        assert query_fingerprint(intro.q1) == query_fingerprint(intro.q1.renamed("other"))
        assert dependency_fingerprint(None) == dependency_fingerprint(DependencySet())


class TestBatchCLI:
    def _write_inputs(self, tmp_path):
        schema_file = tmp_path / "schema.txt"
        schema_file.write_text(SCHEMA_TEXT)
        deps_file = tmp_path / "deps.txt"
        deps_file.write_text(DEPS_TEXT)
        return schema_file, deps_file

    def _write_questions(self, tmp_path, lines):
        questions_file = tmp_path / "questions.jsonl"
        questions_file.write_text("\n".join(lines) + "\n")
        return questions_file

    def test_batch_emits_json_lines(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        questions_file = self._write_questions(tmp_path, [
            json.dumps({"id": "with-ind",
                        "query": "Q2(e) :- EMP(e, s, d)",
                        "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)"}),
            "# a comment line",
            json.dumps({"query": "Q2(e) :- EMP(e, s, d)",
                        "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)"}),
        ])
        status = main([
            "batch", "--schema", str(schema_file), "--deps", str(deps_file),
            "--input", str(questions_file),
        ])
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert status == EXIT_YES
        assert len(records) == 2
        assert all(record["holds"] and record["certain"] for record in records)
        assert records[0]["id"] == "with-ind"
        # The duplicate question is answered from the solver's cache.
        assert not records[0]["cache_hit"] and records[1]["cache_hit"]

    def test_batch_exit_no_when_some_question_fails(self, tmp_path, capsys):
        schema_file, _ = self._write_inputs(tmp_path)
        questions_file = self._write_questions(tmp_path, [
            json.dumps({"query": "Q2(e) :- EMP(e, s, d)",
                        "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)"}),
        ])
        status = main([
            "batch", "--schema", str(schema_file),
            "--input", str(questions_file),
        ])
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert status == EXIT_NO
        assert not records[0]["holds"]

    def test_batch_rejects_malformed_input(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        questions_file = self._write_questions(tmp_path, ["{not json"])
        status = main([
            "batch", "--schema", str(schema_file), "--deps", str(deps_file),
            "--input", str(questions_file),
        ])
        assert status == EXIT_ERROR

    def test_batch_parallel_matches_serial(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        lines = [
            json.dumps({"id": f"q{i}",
                        "query": "Q2(e) :- EMP(e, s, d)",
                        "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)"})
            for i in range(6)
        ]
        questions_file = self._write_questions(tmp_path, lines)
        serial_status = main([
            "batch", "--schema", str(schema_file), "--deps", str(deps_file),
            "--input", str(questions_file),
        ])
        serial_output = [json.loads(line) for line in
                         capsys.readouterr().out.strip().splitlines()]
        parallel_status = main([
            "batch", "--schema", str(schema_file), "--deps", str(deps_file),
            "--input", str(questions_file), "--parallelism", "3",
        ])
        parallel_output = [json.loads(line) for line in
                           capsys.readouterr().out.strip().splitlines()]
        assert serial_status == parallel_status == EXIT_YES
        assert [r["id"] for r in parallel_output] == [r["id"] for r in serial_output]
        assert [r["holds"] for r in parallel_output] == [r["holds"] for r in serial_output]


class TestJSONOutputs:
    def _write_inputs(self, tmp_path):
        schema_file = tmp_path / "schema.txt"
        schema_file.write_text(SCHEMA_TEXT)
        deps_file = tmp_path / "deps.txt"
        deps_file.write_text(DEPS_TEXT)
        return schema_file, deps_file

    def test_contain_json(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        status = main([
            "contain", "--schema", str(schema_file), "--deps", str(deps_file),
            "--query", "Q2(e) :- EMP(e, s, d)",
            "--query-prime", "Q1(e) :- EMP(e, s, d), DEP(d, l)",
            "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert status == EXIT_YES
        assert data["holds"] and data["certain"]
        assert data["method"] == "bounded-chase"
        assert data["homomorphism"]

    def test_chase_json(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        status = main([
            "chase", "--schema", str(schema_file), "--deps", str(deps_file),
            "--query", "Q(e) :- EMP(e, s, d)", "--max-level", "2", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert status == EXIT_YES
        assert data["saturated"] in (True, False)
        assert data["conjuncts"] and all("level" in c for c in data["conjuncts"])

    def test_minimize_json(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        status = main([
            "minimize", "--schema", str(schema_file), "--deps", str(deps_file),
            "--query", "Q1(e) :- EMP(e, s, d), DEP(d, l)", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert status == EXIT_YES
        assert data["conjuncts_removed"] == 1
        assert data["steps"]

    def test_infer_ind_json(self, tmp_path, capsys):
        schema_file, deps_file = self._write_inputs(tmp_path)
        status = main([
            "infer-ind", "--schema", str(schema_file), "--deps", str(deps_file),
            "--candidate", "EMP[dept] <= DEP[dept]", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert status == EXIT_YES
        assert data["implied"] is True
