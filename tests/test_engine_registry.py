"""The chase-engine table: two fixed names behind every layer.

Certifies:

* the table and its replace-guard — the built-ins are exactly the
  columnar production engine and the legacy reference;
* the one shared validator (``ChaseConfig`` and ``SolverConfig`` both
  funnel through it, so unknown names produce the *same* error, listing
  the registered names);
* resolution when a config is built: ``None`` becomes the process
  default, which ``$REPRO_CHASE_ENGINE`` sets once per process (checked
  in subprocesses), and the cache keys built from the resolved names
  keep their persistent-store digests;
* the factory hook (``register_engine(..., replace=True)``) the served
  benchmark's tracer wraps: a replaced factory constructs every chase;
* the engine surface both built-ins expose (checked by attribute),
  usable before and after ``run()``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Solver, SolverConfig
from repro.api.persistent import stable_key_digest
from repro.chase.engine import ChaseConfig, ChaseResult, ChaseVariant, build_engine
from repro.chase.chase_graph import ChaseGraph
from repro.chase.registry import (
    CHASE_ENGINE_ENV_VAR,
    available_engines,
    engine_factory,
    register_engine,
    resolve_engine_name,
    validate_engine_name,
)
from repro.exceptions import ChaseError, ReproError
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.service.protocol import handle_record

BUILTINS = ("legacy", "columnar")
SRC = Path(__file__).resolve().parents[1] / "src"
UNKNOWN_ENGINE_MESSAGE = (
    "unknown chase engine 'bogus'; registered engines: 'legacy', 'columnar'")


@pytest.fixture
def workload():
    schema = parse_schema("R(a, b)\nS(c, d)")
    query = parse_query("Q(x) :- R(x, y), S(y, z)", schema)
    sigma = parse_dependencies("R[b] <= S[c]\nS: c -> d", schema)
    return query, sigma


def run_python(code: str, engine: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter whose environment names ``engine``."""
    env = dict(os.environ, **{CHASE_ENGINE_ENV_VAR: engine})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRegistryBasics:
    def test_builtins_registered_in_order(self):
        # Exactly the reference oracle and the production engine.
        assert available_engines() == BUILTINS

    def test_retired_indexed_engine_is_rejected(self):
        with pytest.raises(ChaseError,
                           match="registered engines: 'legacy', 'columnar'"):
            ChaseConfig(engine="indexed")

    def test_register_requires_replace_for_existing_name(self, workload):
        with pytest.raises(ChaseError, match="already registered"):
            register_engine("columnar", lambda q, d, c: None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ChaseError):
            register_engine("", lambda q, d, c: None)
        with pytest.raises(ChaseError):
            register_engine(None, lambda q, d, c: None)

    def test_register_and_create_custom_engine(self, workload):
        query, sigma = workload
        calls = []

        def factory(q, d, c):
            calls.append((q, d, c))
            return build_engine(q, d, ChaseConfig(engine="columnar"))

        register_engine("test-custom", factory, replace=True)
        try:
            assert "test-custom" in available_engines()
            config = ChaseConfig(engine="test-custom")
            result = build_engine(query, sigma, config).run()
            assert isinstance(result, ChaseResult)
            assert calls and calls[0][2] is config
            # The whole stack accepts the name through the shared validator.
            assert validate_engine_name("test-custom") == "test-custom"
            SolverConfig(chase_engine="test-custom")
        finally:
            from repro.chase import registry as registry_module
            del registry_module._REGISTRY["test-custom"]

    def test_engine_factory_validates(self):
        with pytest.raises(ChaseError):
            engine_factory("no-such-engine")


class TestOneSharedValidator:
    """Unknown engine names fail identically at every layer."""

    def test_error_lists_registered_names(self):
        with pytest.raises(ChaseError, match="'legacy'.*'columnar'"):
            validate_engine_name("bogus")

    def test_chase_config_funnels_through_validator(self):
        with pytest.raises(ChaseError, match="registered engines"):
            ChaseConfig(engine="bogus")

    def test_solver_config_funnels_through_validator(self):
        # ChaseError is a ReproError, so facade catchers keep working.
        with pytest.raises(ReproError, match="registered engines"):
            SolverConfig(chase_engine="bogus")

    def test_messages_identical_across_layers(self):
        messages = []
        for build in (lambda: validate_engine_name("bogus"),
                      lambda: ChaseConfig(engine="bogus"),
                      lambda: SolverConfig(chase_engine="bogus")):
            with pytest.raises(ChaseError) as excinfo:
                build()
            messages.append(str(excinfo.value))
        assert messages == [UNKNOWN_ENGINE_MESSAGE] * 3


class TestResolution:
    """A config names the engine and strategy it runs once it is built."""

    def test_explicit_name_wins(self):
        assert resolve_engine_name("legacy") == "legacy"
        assert ChaseConfig(engine="legacy").engine == "legacy"
        assert SolverConfig(chase_engine="legacy").chase_engine == "legacy"

    def test_none_becomes_the_process_default(self):
        default = os.environ.get(CHASE_ENGINE_ENV_VAR) or "columnar"
        assert resolve_engine_name(None) == default
        assert ChaseConfig().engine == default
        assert SolverConfig().chase_engine == default
        assert SolverConfig().chase_config().engine == default
        assert SolverConfig().rewrite_strategy == "exhaustive"
        assert SolverConfig().derive(max_conjuncts=7).chase_engine == default

    def test_environment_is_read_once(self, monkeypatch):
        # Changing the variable after import has no effect: the process
        # default was fixed when the registry was imported.
        default = resolve_engine_name(None)
        other = next(name for name in BUILTINS if name != default)
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, other)
        assert resolve_engine_name(None) == default
        assert ChaseConfig().engine == default

    def test_environment_sets_the_default_for_every_layer(self):
        code = """
import json
from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, build_engine
from repro.chase.registry import available_engines, engine_factory, register_engine
from repro.workloads.paper_examples import intro_example

built = []
for name in available_engines():
    def wrapper(query, dependencies, config, name=name, factory=engine_factory(name)):
        built.append(name)
        return factory(query, dependencies, config)
    register_engine(name, wrapper, replace=True)
intro = intro_example()
solver = Solver()
print(json.dumps({
    "chase_config": ChaseConfig().engine,
    "solver_config": SolverConfig().chase_engine,
    "build_engine": build_engine(intro.q2, intro.dependencies).run().engine,
    "solver_chase": solver.chase(intro.q2, intro.dependencies).engine,
    "holds": solver.is_contained(intro.q2, intro.q1, intro.dependencies).holds,
    "built": sorted(set(built)),
}))
"""
        completed = run_python(code, "legacy")
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == {
            "chase_config": "legacy", "solver_config": "legacy",
            "build_engine": "legacy", "solver_chase": "legacy",
            "holds": True, "built": ["legacy"]}

    def test_unknown_environment_value_fails_at_import(self):
        completed = run_python("import repro", "bogus")
        assert completed.returncode != 0
        assert f"ChaseError: {UNKNOWN_ENGINE_MESSAGE}" in completed.stderr


SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"

#: Persistent-store digests of the keys a solver built before configs
#: resolved their names (``stable_key_digest`` of ``containment_key()``,
#: ``rewrite_key()``, and the chase cache key of the default chase of
#: ``Q(e) :- EMP(e, s, d), DEP(d, l)``).  A store written then stays warm
#: only while these hold.
PINNED_DIGESTS = {
    "columnar": (
        "218e74ccb77f3b93b100ac890822e3265373d518499ab0b868573b0cc224aed2",
        "9d47b613a9febd7a669a14168a6f87b3090e97b6f567380d8b5f42b9a0789452",
        "add9b0fae7399eee23edc253b9aebabfadd6053d7c1082b71050a6d6662867fa",
    ),
    "legacy": (
        "2122ec208c2094e684723707444ab3b465c816e328db36609eeb91ae1468d04b",
        "b41fcace180830a0a7b8abbdeb3cffd567480f5613864f1837c3d99d9b33dd0e",
        "65757e9a67931af06447f99831c83dfb2930ede4abec4bbc9fefce6c30d4c8aa",
    ),
}


class TestResolvedKeys:
    @pytest.mark.parametrize("engine", [None, "columnar", "legacy"])
    def test_keys_keep_their_digests(self, engine):
        expected = engine or os.environ.get(CHASE_ENGINE_ENV_VAR) or "columnar"
        config = SolverConfig(chase_engine=engine)
        assert config.containment_key() == (
            ChaseVariant.RESTRICTED, None, 20_000, False, False, True, True,
            None, expected)
        assert config.rewrite_key() == config.containment_key() + (
            5_000, 64, 2, 256, None, "exhaustive")
        solver = Solver(config)
        chase_keys = []
        answer = solver._answer

        def spy(cache, namespace, key_of, compute, cacheable=True):
            if namespace == "chase":
                chase_keys.append(key_of())
            return answer(cache, namespace, key_of, compute, cacheable)

        solver._answer = spy
        schema = parse_schema(SCHEMA_TEXT)
        solver.chase(parse_query("Q(e) :- EMP(e, s, d), DEP(d, l)", schema),
                     parse_dependencies(DEPS_TEXT, schema))
        assert len(chase_keys) == 1
        assert tuple(stable_key_digest(key) for key in (
            config.containment_key(), config.rewrite_key(), chase_keys[0],
        )) == PINNED_DIGESTS[expected]


@pytest.fixture
def constructed():
    """Wrap both built-in factories as the served benchmark's tracer does.

    Yields the ``(engine, query name)`` of every engine a wrapper built;
    the original factories are restored afterwards.
    """
    originals = {name: engine_factory(name) for name in BUILTINS}
    built = []

    def wrap(name, factory):
        def wrapper(query, dependencies, config):
            built.append((name, query.name))
            return factory(query, dependencies, config)
        return wrapper

    for name, factory in originals.items():
        register_engine(name, wrap(name, factory), replace=True)
    try:
        yield built
    finally:
        for name, factory in originals.items():
            register_engine(name, factory, replace=True)


class TestFactoryHook:
    def test_build_engine_calls_the_replaced_factory(self, constructed, workload):
        query, sigma = workload
        for name in BUILTINS:
            assert build_engine(query, sigma, ChaseConfig(engine=name)).run().engine == name
        build_engine(query, sigma).run()
        assert constructed == [("legacy", "Q"), ("columnar", "Q"),
                               (resolve_engine_name(None), "Q")]

    def test_served_contain_constructs_through_the_hook(self, constructed):
        envelope = handle_record(
            {"id": "c", "query": "Q2(e) :- EMP(e, s, d)",
             "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)",
             "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}, Solver())
        assert envelope["ok"] and envelope["result"]["holds"]
        assert constructed
        assert {name for name, _ in constructed} == {resolve_engine_name(None)}
        assert {query for _, query in constructed} == {"Q2"}

    def test_served_rewrite_constructs_through_the_hook(self, constructed):
        envelope = handle_record(
            {"id": "r", "op": "rewrite",
             "query": "Q1(e) :- EMP(e, s, d), DEP(d, l)",
             "views": "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)",
             "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}, Solver())
        assert envelope["ok"] and envelope["result"]["rewritings"]
        assert {name for name, _ in constructed} == {resolve_engine_name(None)}
        # The matching chase of Q1 and the forward certification's chase
        # of each candidate's expansion.
        queries = {query for _, query in constructed}
        assert "Q1" in queries
        assert "Q1_views_expanded" in queries


class TestProtocolConformance:
    """What every engine exposes: a name, ``run()``, graph and statistics."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_registered_engine_satisfies_protocol(self, name, workload):
        query, sigma = workload
        engine = build_engine(query, sigma, ChaseConfig(engine=name))
        assert engine.engine_name == name
        assert callable(engine.run)
        assert isinstance(engine.graph, ChaseGraph)
        assert hasattr(engine, "statistics")

    @pytest.mark.parametrize("name", BUILTINS)
    def test_surface_usable_before_and_after_run(self, name, workload):
        query, sigma = workload
        engine = build_engine(query, sigma, ChaseConfig(engine=name, max_level=2))
        # Before run(): an (empty or partial) graph and zeroed counters.
        assert isinstance(engine.graph, ChaseGraph)
        assert engine.statistics.total_steps == 0
        result = engine.run()
        assert result.engine == name
        assert engine.statistics is result.statistics
        assert engine.graph is result.graph
        assert result.graph.nodes(include_dead=True)
