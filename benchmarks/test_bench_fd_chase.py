"""E10 — the FD-only chase substrate (Maier–Mendelzon–Sagiv).

Paper artifact: the classical FD chase the paper builds on (Section 3's
"the procedure is well known").  Expected shape: chasing a query that
joins the same key repeatedly collapses all copies into one conjunct; the
number of chase steps grows with the number of copies; FD-only containment
resolves exactly.

Both groups time what the FD-only procedures run: the chase case times
``build_engine(query, Σ, ChaseConfig(record_trace=False)).run()``, the
call :func:`contained_under_fds` makes, on the process-default engine.
A 2-atom chase is mostly the engine's fixed per-run cost (construction,
interning, result materialisation), not FD work.
"""

import pytest

from repro.chase.engine import ChaseConfig, build_engine
from repro.containment.fd_containment import contained_under_fds
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.queries.builder import QueryBuilder
from repro.relational.schema import DatabaseSchema


SCHEMA = DatabaseSchema.from_dict({"EMP": ["emp", "sal", "dept"], "DEP": ["dept", "loc"]})
FDS = [
    FunctionalDependency("EMP", ["emp"], "sal"),
    FunctionalDependency("EMP", ["emp"], "dept"),
    FunctionalDependency("DEP", ["dept"], "loc"),
]
SIGMA = DependencySet(FDS, schema=SCHEMA)


def _repeated_key_query(copies):
    builder = QueryBuilder(SCHEMA, f"Q{copies}").head("e")
    for index in range(copies):
        builder.atom("EMP", "e", f"s{index}", f"d{index}")
        builder.atom("DEP", f"d{index}", f"l{index}")
    return builder.build()


@pytest.mark.benchmark(group="E10-fd-chase")
@pytest.mark.parametrize("copies", [2, 4, 8, 16])
def test_e10_chase_collapses_repeated_keys(benchmark, copies):
    query = _repeated_key_query(copies)
    config = ChaseConfig(record_trace=False)
    result = benchmark(lambda: build_engine(query, SIGMA, config).run())
    assert not result.failed
    relations = [conjunct.relation for conjunct in result.conjuncts()]
    # All EMP copies share the key 'e', so they merge; the DEP copies then
    # share the same dept and merge too.
    assert relations.count("EMP") == 1
    assert relations.count("DEP") == 1
    assert result.statistics.fd_steps >= copies - 1


@pytest.mark.benchmark(group="E10-fd-chase")
@pytest.mark.parametrize("copies", [2, 4, 8])
def test_e10_fd_containment(benchmark, copies):
    query = _repeated_key_query(copies)
    single = _repeated_key_query(1)
    result = benchmark(lambda: contained_under_fds(single, query, SIGMA))
    assert result.holds and result.certain
