"""Additional property-based tests: FD-chase idempotence, termination
analysis vs. observed chase behaviour, and witness soundness."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.engine import ChaseConfig, build_engine, r_chase
from repro.chase.termination import chase_guaranteed_finite
from repro.containment.witness import non_containment_witness
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.workloads.dependency_generator import DependencyGenerator
from repro.workloads.query_generator import QueryGenerator
from repro.workloads.schema_generator import SchemaGenerator


SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def fd_workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = SchemaGenerator(seed=seed).uniform(2, 3)
    query = QueryGenerator(schema, seed=seed).random(
        atom_count=draw(st.integers(min_value=2, max_value=4)),
        variable_pool=draw(st.integers(min_value=2, max_value=4)),
    )
    fds = []
    for relation in schema:
        fds.extend(FunctionalDependency.key(relation, [relation.attribute_name_at(0)]))
    return query, DependencySet(fds, schema=schema)


def fd_chase(query, sigma):
    return build_engine(query, sigma, ChaseConfig(record_trace=False)).run()


@st.composite
def ind_workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = SchemaGenerator(seed=seed).uniform(2, 2)
    query = QueryGenerator(schema, seed=seed).random(
        atom_count=draw(st.integers(min_value=1, max_value=3)), variable_pool=3)
    sigma = DependencyGenerator(schema, seed=seed + 1).ind_only(
        draw(st.integers(min_value=1, max_value=2)), max_width=1)
    return query, sigma


class TestFDChaseProperties:
    @SETTINGS
    @given(fd_workload())
    def test_fd_chase_is_idempotent(self, case):
        query, sigma = case
        first = fd_chase(query, sigma)
        if first.failed:
            return
        second = fd_chase(first.as_query(), sigma)
        assert not second.failed
        assert second.statistics.fd_steps == 0
        assert len(second) == len(first)

    @SETTINGS
    @given(fd_workload())
    def test_fd_chase_never_grows_the_query(self, case):
        query, sigma = case
        result = fd_chase(query, sigma)
        if result.failed:
            return
        chased = result.as_query()
        assert len(chased) <= len(query)
        # Variables never increase either (merging only removes symbols).
        assert len(chased.variables()) <= len(query.variables())


class TestTerminationProperties:
    @SETTINGS
    @given(ind_workload())
    def test_weak_acyclicity_implies_saturation(self, case):
        query, sigma = case
        if not chase_guaranteed_finite(sigma, query.input_schema):
            return
        result = r_chase(query, sigma, max_conjuncts=2_000)
        assert result.saturated


class TestWitnessProperties:
    @SETTINGS
    @given(ind_workload())
    def test_witnesses_always_separate(self, case):
        query, sigma = case
        query_prime = QueryGenerator(query.input_schema, seed=123).random(
            atom_count=2, variable_pool=3, name="Qp")
        if query.output_arity != query_prime.output_arity:
            return
        witness = non_containment_witness(query, query_prime, sigma,
                                          max_conjuncts=2_000)
        if witness is None:
            return
        assert witness.separates(query, query_prime)
