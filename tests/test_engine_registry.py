"""The chase-engine registry: one name → factory table behind every layer.

Certifies:

* registration, listing, and the replace-guard — the built-ins are
  exactly the columnar production engine and the legacy reference;
* the one shared validator (``ChaseConfig`` and ``SolverConfig`` both
  funnel through it, so unknown names produce the *same* error, listing
  the registered names);
* ``None`` resolution through ``$REPRO_CHASE_ENGINE`` down to the
  ``columnar`` default;
* every registered built-in engine conforming to
  :class:`ChaseEngineProtocol` — including the graph/statistics surface
  being usable *before and after* ``run()``.
"""

from __future__ import annotations

import pytest

from repro.api import SolverConfig
from repro.chase.engine import ChaseConfig, ChaseResult, build_engine
from repro.chase.chase_graph import ChaseGraph
from repro.chase.registry import (
    CHASE_ENGINE_ENV_VAR,
    ChaseEngineProtocol,
    available_engines,
    create_engine,
    engine_factory,
    register_engine,
    resolve_engine_name,
    validate_engine_name,
)
from repro.exceptions import ChaseError, ReproError
from repro.parser import parse_dependencies, parse_query, parse_schema

BUILTINS = ("legacy", "columnar")


@pytest.fixture
def workload():
    schema = parse_schema("R(a, b)\nS(c, d)")
    query = parse_query("Q(x) :- R(x, y), S(y, z)", schema)
    sigma = parse_dependencies("R[b] <= S[c]\nS: c -> d", schema)
    return query, sigma


class TestRegistryBasics:
    def test_builtins_registered_in_order(self):
        # Exactly the production engine and the reference oracle, in the
        # engine module's registration order.
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
            result = create_engine("test-custom", query, sigma, config).run()
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
        assert len(set(messages)) == 1


class TestResolution:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "legacy")
        assert resolve_engine_name("columnar") == "columnar"

    def test_none_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "columnar")
        assert resolve_engine_name(None) == "columnar"

    def test_none_without_environment_is_columnar(self, monkeypatch):
        monkeypatch.delenv(CHASE_ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name(None) == "columnar"

    def test_environment_name_is_validated(self, monkeypatch):
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "bogus")
        with pytest.raises(ChaseError, match="registered engines"):
            resolve_engine_name(None)

    def test_build_engine_honours_environment(self, workload, monkeypatch):
        query, sigma = workload
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "legacy")
        result = build_engine(query, sigma, ChaseConfig()).run()
        assert result.engine == "legacy"


class TestProtocolConformance:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_registered_engine_satisfies_protocol(self, name, workload):
        query, sigma = workload
        engine = create_engine(name, query, sigma, ChaseConfig(engine=name))
        assert isinstance(engine, ChaseEngineProtocol)
        assert engine.engine_name == name

    @pytest.mark.parametrize("name", BUILTINS)
    def test_surface_usable_before_and_after_run(self, name, workload):
        query, sigma = workload
        engine = create_engine(name, query, sigma,
                               ChaseConfig(engine=name, max_level=2))
        # Before run(): an (empty or partial) graph and zeroed counters.
        assert isinstance(engine.graph, ChaseGraph)
        assert engine.statistics.total_steps == 0
        result = engine.run()
        assert result.engine == name
        assert engine.statistics is result.statistics
        assert engine.graph is result.graph
        assert result.graph.nodes(include_dead=True)
