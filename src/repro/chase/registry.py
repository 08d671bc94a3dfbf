"""Pluggable chase-engine registry.

Every layer that names a chase engine — ``ChaseConfig``,
``SolverConfig``, the CLI's ``--engine`` choices,
``$REPRO_CHASE_ENGINE`` — resolves it through this one registry:

* :func:`register_engine` binds a name to a factory
  ``(query, dependencies, config) -> engine``;
* :func:`available_engines` lists the registered names in registration
  order (the built-ins register as ``legacy``, ``columnar``);
* :func:`resolve_engine_name` is the single resolver every config layer
  goes through — ``None`` falls back to ``$REPRO_CHASE_ENGINE`` and then
  to the ``columnar`` default, and unknown names raise a
  :class:`~repro.exceptions.ChaseError` listing the registered names;
* :func:`create_engine` instantiates by name.

:class:`ChaseEngineProtocol` spells out the contract a registered engine
must satisfy — the seam new engines plug into.

The registry itself imports nothing heavy; the built-in engines are
registered by :mod:`repro.chase.engine` when it is imported, and the
functions here trigger that import lazily so ``repro.chase.registry`` is
usable on its own without creating an import cycle.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.exceptions import ChaseError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.chase.chase_graph import ChaseGraph
    from repro.chase.engine import ChaseConfig, ChaseResult, ChaseStatistics
    from repro.dependencies.dependency_set import DependencySet
    from repro.queries.conjunctive_query import ConjunctiveQuery

#: Environment override for the process-wide default engine, read when a
#: config leaves ``engine=None``.  CI uses it to run the whole suite under
#: every implementation.
CHASE_ENGINE_ENV_VAR = "REPRO_CHASE_ENGINE"

#: The engine used when neither the config nor the environment picks one.
DEFAULT_CHASE_ENGINE = "columnar"

EngineFactory = Callable[
    ["ConjunctiveQuery", "DependencySet", "ChaseConfig"], "ChaseEngineProtocol"]

_REGISTRY: Dict[str, EngineFactory] = {}


@runtime_checkable
class ChaseEngineProtocol(Protocol):
    """The contract every registered chase engine satisfies.

    An engine is constructed per ``(query, dependencies, config)`` by its
    registered factory and exposes:

    ``engine_name``
        The registry name it was registered under (stamped into
        ``ChaseResult.engine``, metrics labels, and trace spans).
    ``run()``
        Executes the chase once and returns a
        :class:`~repro.chase.engine.ChaseResult`.
    ``graph`` / ``statistics``
        The level-ordered node snapshot and work counters backing the
        result — materialized :class:`~repro.chase.chase_graph.ChaseGraph`
        nodes regardless of the engine's internal representation.
    """

    engine_name: str

    def run(self) -> "ChaseResult": ...

    @property
    def graph(self) -> "ChaseGraph": ...

    @property
    def statistics(self) -> "ChaseStatistics": ...


def register_engine(name: str, factory: EngineFactory, *,
                    replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    Re-registering an existing name raises unless ``replace=True`` (the
    escape hatch for tests and experimental drop-in engines).
    """
    if not name or not isinstance(name, str):
        raise ChaseError(f"engine name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ChaseError(
            f"chase engine {name!r} is already registered; "
            f"pass replace=True to override")
    _REGISTRY[name] = factory


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def validate_engine_name(name: str) -> str:
    """Check ``name`` against the registry; the one shared validator.

    ``ChaseConfig.__post_init__``, ``SolverConfig``, and the resolver all
    funnel through here, so the error message — which lists the
    registered names — cannot drift between layers.
    """
    _ensure_builtins()
    if name not in _REGISTRY:
        raise ChaseError(
            f"unknown chase engine {name!r}; "
            f"registered engines: {', '.join(repr(n) for n in _REGISTRY)}")
    return name


def resolve_engine_name(name: Optional[str] = None) -> str:
    """The concrete engine a config selects.

    ``None`` falls back to ``$REPRO_CHASE_ENGINE`` and then to
    :data:`DEFAULT_CHASE_ENGINE`; unregistered names raise.
    """
    resolved = name or os.environ.get(CHASE_ENGINE_ENV_VAR) or DEFAULT_CHASE_ENGINE
    return validate_engine_name(resolved)


def engine_factory(name: str) -> EngineFactory:
    """The factory registered under ``name`` (validating the name)."""
    return _REGISTRY[validate_engine_name(name)]


def create_engine(name: str, query: "ConjunctiveQuery",
                  dependencies: "DependencySet",
                  config: "ChaseConfig") -> "ChaseEngineProtocol":
    """Instantiate the engine registered under ``name``."""
    return engine_factory(name)(query, dependencies, config)


def _ensure_builtins() -> None:
    """Make sure the built-in engines have registered themselves.

    The built-ins live behind :mod:`repro.chase.engine`, which registers
    them at import time; importing it lazily here keeps this module
    dependency-free while guaranteeing ``available_engines()`` is never
    empty for callers that import only the registry.
    """
    if DEFAULT_CHASE_ENGINE not in _REGISTRY:
        import repro.chase.engine  # noqa: F401  (registration side effect)
