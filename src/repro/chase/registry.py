"""The chase-engine table: two built-in names, one factory each.

Every layer that names a chase engine — ``ChaseConfig``,
``SolverConfig``, the CLI's ``--engine`` choices — checks it against
this one table:

* ``"legacy"`` (the seed engine, kept as the differential harness's
  reference) and ``"columnar"`` (the production engine, the default)
  are the built-in names.  Each factory ``(query, dependencies,
  config) -> engine`` imports its engine module when called, so this
  module imports nothing heavy;
* ``$REPRO_CHASE_ENGINE`` names the process default.  It is read once,
  when this module is imported, and validated then: an unknown value
  fails the import with :func:`validate_engine_name`'s message, and
  changing the variable afterwards has no effect.  CI sets it to run
  the whole suite under each engine;
* :func:`resolve_engine_name` turns a config's ``None`` into that
  default.  Configs call it once, when they are built, so cache keys and
  :func:`~repro.chase.engine.build_engine` read the resolved name;
* :func:`register_engine` with ``replace=True`` substitutes a factory —
  the hook tests and the served benchmark's tracer use to wrap engine
  construction.  ``build_engine`` looks the factory up on every call, so
  a replaced factory is the one that runs.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.exceptions import ChaseError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.chase.engine import ChaseConfig
    from repro.dependencies.dependency_set import DependencySet
    from repro.queries.conjunctive_query import ConjunctiveQuery

#: Environment variable naming the process-wide default engine.
CHASE_ENGINE_ENV_VAR = "REPRO_CHASE_ENGINE"

#: The engine used when the environment names none.
DEFAULT_CHASE_ENGINE = "columnar"


def _legacy(query: ConjunctiveQuery, dependencies: DependencySet,
            config: ChaseConfig):
    from repro.chase.legacy_engine import LegacyChaseEngine
    return LegacyChaseEngine(query, dependencies, config)


def _columnar(query: ConjunctiveQuery, dependencies: DependencySet,
              config: ChaseConfig):
    from repro.chase.columnar import ColumnarChaseEngine
    return ColumnarChaseEngine(query, dependencies, config)


_REGISTRY: Dict[str, Callable] = {"legacy": _legacy, "columnar": _columnar}


def register_engine(name: str, factory: Callable, *,
                    replace: bool = False) -> None:
    """Bind ``name`` to ``factory``.

    Re-registering an existing name raises unless ``replace=True``.
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
    return tuple(_REGISTRY)


def validate_engine_name(name: str) -> str:
    """Return ``name``, or raise :class:`ChaseError` listing the registered names.

    The one validator every layer shares, so the message cannot drift
    between them.
    """
    if name not in _REGISTRY:
        raise ChaseError(
            f"unknown chase engine {name!r}; "
            f"registered engines: {', '.join(repr(n) for n in _REGISTRY)}")
    return name


def engine_factory(name: str) -> Callable:
    """The factory registered under ``name`` (validating the name)."""
    return _REGISTRY[validate_engine_name(name)]


#: The engine a config without one runs, fixed when the process imports
#: this module.
_PROCESS_DEFAULT = validate_engine_name(
    os.environ.get(CHASE_ENGINE_ENV_VAR) or DEFAULT_CHASE_ENGINE)


def resolve_engine_name(name: Optional[str] = None) -> str:
    """The engine a config names: ``None`` is the process default.

    Any other value must be a registered name.
    """
    return _PROCESS_DEFAULT if name is None else validate_engine_name(name)
