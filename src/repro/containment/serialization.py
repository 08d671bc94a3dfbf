"""Serialization of queries, dependencies, and containment certificates.

Theorem 2's point is that containment has polynomial-size *certificates*.
To make that concrete the library can export a certificate (together with
the two queries, the dependency set, and the schema they live over) as a
plain-JSON document and re-import and re-verify it elsewhere — the
"short proof" can be shipped to a different process and checked without
re-running the search.

The format is versioned and intentionally simple: terms are tagged
dictionaries, conjuncts are ``{relation, terms}``, and everything else is
lists of those.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.containment.certificates import CertificateStep, ContainmentCertificate
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.embedded import EGD, TGD
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.exceptions import ReproError
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.term import (
    Constant,
    DistinguishedVariable,
    NonDistinguishedVariable,
    Term,
    Variable,
)

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """A document could not be converted to or from the JSON format."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def term_to_dict(term: Term) -> Dict[str, Any]:
    if isinstance(term, Constant):
        return {"kind": "constant", "value": term.value}
    if isinstance(term, DistinguishedVariable):
        return {"kind": "dv", "name": term.name}
    if isinstance(term, NonDistinguishedVariable):
        return {"kind": "ndv", "name": term.name, "created": term.created,
                "serial": list(term.serial)}
    if isinstance(term, Variable):
        # Plain rule-scoped variables, as used by TGD/EGD atoms.
        return {"kind": "var", "name": term.name}
    raise SerializationError(f"cannot serialize term {term!r}")


def term_from_dict(data: Dict[str, Any]) -> Term:
    kind = data.get("kind")
    if kind == "constant":
        return Constant(data["value"])
    if kind == "dv":
        return DistinguishedVariable(data["name"])
    if kind == "ndv":
        return NonDistinguishedVariable(
            data["name"], serial=tuple(data.get("serial", ())),
            created=bool(data.get("created", False)))
    if kind == "var":
        return Variable(data["name"])
    raise SerializationError(f"unknown term kind {kind!r}")


# ---------------------------------------------------------------------------
# Schemas, conjuncts, queries, dependencies
# ---------------------------------------------------------------------------


def schema_to_dict(schema: DatabaseSchema) -> Dict[str, Any]:
    return {
        "relations": [
            {"name": relation.name, "attributes": list(relation.attribute_names)}
            for relation in schema
        ]
    }


def schema_from_dict(data: Dict[str, Any]) -> DatabaseSchema:
    schema = DatabaseSchema()
    for relation in data.get("relations", []):
        schema.add_relation(relation["name"], relation["attributes"])
    return schema


def conjunct_to_dict(conjunct: Conjunct) -> Dict[str, Any]:
    return {
        "relation": conjunct.relation,
        "label": conjunct.label,
        "terms": [term_to_dict(term) for term in conjunct.terms],
    }


def conjunct_from_dict(data: Dict[str, Any]) -> Conjunct:
    return Conjunct(
        data["relation"],
        [term_from_dict(term) for term in data["terms"]],
        label=data.get("label", ""),
    )


def query_to_dict(query: ConjunctiveQuery) -> Dict[str, Any]:
    return {
        "name": query.name,
        "schema": schema_to_dict(query.input_schema),
        "conjuncts": [conjunct_to_dict(conjunct) for conjunct in query.conjuncts],
        "summary_row": [term_to_dict(term) for term in query.summary_row],
        "output_attributes": list(query.output_attributes),
    }


def query_from_dict(data: Dict[str, Any],
                    schema: Optional[DatabaseSchema] = None) -> ConjunctiveQuery:
    resolved_schema = schema if schema is not None else schema_from_dict(data["schema"])
    return ConjunctiveQuery(
        input_schema=resolved_schema,
        conjuncts=[conjunct_from_dict(conjunct) for conjunct in data["conjuncts"]],
        summary_row=tuple(term_from_dict(term) for term in data["summary_row"]),
        output_attributes=data.get("output_attributes"),
        name=data.get("name", "Q"),
    )


def dependency_to_dict(dependency: Union[FunctionalDependency, InclusionDependency,
                                         TGD, EGD]) -> Dict[str, Any]:
    if isinstance(dependency, FunctionalDependency):
        return {"kind": "fd", "relation": dependency.relation,
                "lhs": list(dependency.lhs), "rhs": dependency.rhs}
    if isinstance(dependency, InclusionDependency):
        return {"kind": "ind",
                "lhs_relation": dependency.lhs_relation,
                "lhs_attributes": list(dependency.lhs_attributes),
                "rhs_relation": dependency.rhs_relation,
                "rhs_attributes": list(dependency.rhs_attributes)}
    if isinstance(dependency, TGD):
        return {"kind": "tgd",
                "body": [conjunct_to_dict(atom) for atom in dependency.body],
                "head": [conjunct_to_dict(atom) for atom in dependency.head]}
    if isinstance(dependency, EGD):
        return {"kind": "egd",
                "body": [conjunct_to_dict(atom) for atom in dependency.body],
                "lhs": term_to_dict(dependency.lhs),
                "rhs": term_to_dict(dependency.rhs)}
    raise SerializationError(f"cannot serialize dependency {dependency!r}")


def dependency_from_dict(data: Dict[str, Any]) -> Union[FunctionalDependency,
                                                        InclusionDependency, TGD, EGD]:
    kind = data.get("kind")
    if kind == "fd":
        return FunctionalDependency(data["relation"], data["lhs"], data["rhs"])
    if kind == "ind":
        return InclusionDependency(data["lhs_relation"], data["lhs_attributes"],
                                   data["rhs_relation"], data["rhs_attributes"])
    if kind == "tgd":
        return TGD([conjunct_from_dict(atom) for atom in data["body"]],
                   [conjunct_from_dict(atom) for atom in data["head"]])
    if kind == "egd":
        return EGD([conjunct_from_dict(atom) for atom in data["body"]],
                   term_from_dict(data["lhs"]), term_from_dict(data["rhs"]))
    raise SerializationError(f"unknown dependency kind {kind!r}")


def dependency_set_to_dict(dependencies: DependencySet) -> List[Dict[str, Any]]:
    return [dependency_to_dict(dependency) for dependency in dependencies]


def dependency_set_from_dict(data: List[Dict[str, Any]],
                             schema: Optional[DatabaseSchema] = None) -> DependencySet:
    return DependencySet([dependency_from_dict(entry) for entry in data], schema=schema)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def certificate_to_dict(certificate: ContainmentCertificate) -> Dict[str, Any]:
    """Export a certificate (with its full context) as plain data."""
    return {
        "format_version": FORMAT_VERSION,
        "query": query_to_dict(certificate.query),
        "query_prime": query_to_dict(certificate.query_prime),
        "dependencies": dependency_set_to_dict(certificate.dependencies),
        "homomorphism": [
            {"variable": term_to_dict(variable), "image": term_to_dict(image)}
            for variable, image in certificate.homomorphism.items()
        ],
        "image_nodes": list(certificate.image_nodes),
        "chase_summary_row": [term_to_dict(term) for term in certificate.chase_summary_row],
        "steps": [
            {
                "node_id": step.node_id,
                "level": step.level,
                "parent": step.parent,
                "dependency": step.dependency,
                "conjunct": conjunct_to_dict(step.conjunct),
            }
            for step in certificate.steps
        ],
    }


def certificate_from_dict(data: Dict[str, Any]) -> ContainmentCertificate:
    """Rebuild a certificate from exported data (ready to ``verify()``)."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported certificate format version {version!r}")
    schema = schema_from_dict(data["query"]["schema"])
    query = query_from_dict(data["query"], schema=schema)
    query_prime = query_from_dict(data["query_prime"], schema=schema)
    dependencies = dependency_set_from_dict(data["dependencies"], schema=schema)
    homomorphism = {
        term_from_dict(entry["variable"]): term_from_dict(entry["image"])
        for entry in data["homomorphism"]
    }
    steps = [
        CertificateStep(
            node_id=entry["node_id"],
            conjunct=conjunct_from_dict(entry["conjunct"]),
            level=entry["level"],
            parent=entry["parent"],
            dependency=entry["dependency"],
        )
        for entry in data["steps"]
    ]
    return ContainmentCertificate(
        query=query,
        query_prime=query_prime,
        dependencies=dependencies,
        homomorphism=homomorphism,
        image_nodes=list(data["image_nodes"]),
        steps=steps,
        chase_summary_row=tuple(term_from_dict(term)
                                for term in data["chase_summary_row"]),
    )


# ---------------------------------------------------------------------------
# Results and reports (the CLI's --json output)
# ---------------------------------------------------------------------------


def homomorphism_to_dict(mapping: Dict[Any, Any]) -> List[Dict[str, Any]]:
    """A containment mapping as a list of tagged (variable, image) pairs."""
    return [
        {"variable": term_to_dict(variable), "image": term_to_dict(image)}
        for variable, image in mapping.items()
    ]


def containment_result_to_dict(result: "ContainmentResult") -> Dict[str, Any]:
    """A :class:`ContainmentResult` as plain JSON-ready data.

    The certificate, when present, is embedded in its own versioned
    format (the one :func:`certificate_to_dict` produces).
    """
    data: Dict[str, Any] = {
        "holds": result.holds,
        "certain": result.certain,
        "method": result.method,
        "reason": result.reason,
        "levels_built": result.levels_built,
        "chase_size": result.chase_size,
        "level_bound": result.level_bound,
    }
    if result.homomorphism is not None:
        data["homomorphism"] = homomorphism_to_dict(result.homomorphism)
    if result.certificate is not None:
        data["certificate"] = certificate_to_dict(result.certificate)
    return data


def chase_result_to_dict(result: "ChaseResult",
                         include_trace: bool = False) -> Dict[str, Any]:
    """A chase outcome (status, statistics, per-level conjuncts) as data.

    ``include_trace`` adds the application trace as one human-readable
    line per recorded step (empty when the run had ``record_trace`` off).
    """
    data: Dict[str, Any] = {
        "query": result.query.name,
        "variant": result.variant.value,
        "engine": result.engine,
        "failed": result.failed,
        "saturated": result.saturated,
        "truncated": result.truncated,
        "max_level": result.max_level(),
        "statistics": {
            "fd_steps": result.statistics.fd_steps,
            "ind_steps": result.statistics.ind_steps,
            "egd_steps": result.statistics.egd_steps,
            "tgd_steps": result.statistics.tgd_steps,
            "redundant_ind_applications": result.statistics.redundant_ind_applications,
            "redundant_tgd_applications": result.statistics.redundant_tgd_applications,
            "merged_conjuncts": result.statistics.merged_conjuncts,
            "total_steps": result.statistics.total_steps,
            "triggers_examined": result.statistics.triggers_examined,
            "index_hits": result.statistics.index_hits,
            "delta_seeded_matches": result.statistics.delta_seeded_matches,
            "trigger_cache_hits": result.statistics.trigger_cache_hits,
            "interned_terms": result.statistics.interned_terms,
            "union_find_unions": result.statistics.union_find_unions,
            "union_find_finds": result.statistics.union_find_finds,
            "column_probes": result.statistics.column_probes,
        },
        "level_histogram": {str(level): count for level, count
                            in sorted(result.level_histogram().items())},
        "conjuncts": [] if result.failed else [
            dict(conjunct_to_dict(node.conjunct), level=node.level)
            for node in result.graph
        ],
    }
    if result.failed:
        data["failure_dependency"] = result.failure_dependency
        data["failure_live_conjuncts"] = result.failure_live_conjuncts
    if include_trace:
        data["trace"] = [step.describe() for step in result.trace]
    return data


def optimization_report_to_dict(report: "OptimizationReport") -> Dict[str, Any]:
    """An :class:`OptimizationReport` as data (queries fully serialized)."""
    return {
        "original": query_to_dict(report.original),
        "optimized": query_to_dict(report.optimized),
        "original_text": str(report.original),
        "optimized_text": str(report.optimized),
        "unsatisfiable": report.unsatisfiable,
        "conjuncts_removed": report.conjuncts_removed,
        "steps": [
            {
                "stage": step.stage,
                "description": step.description,
                "removed_conjunct": (conjunct_to_dict(step.removed_conjunct)
                                     if step.removed_conjunct is not None else None),
            }
            for step in report.steps
        ],
    }


def certificate_to_json(certificate: ContainmentCertificate, indent: int = 2) -> str:
    """Export a certificate as a JSON string."""
    return json.dumps(certificate_to_dict(certificate), indent=indent, sort_keys=True)


def certificate_from_json(text: str) -> ContainmentCertificate:
    """Import a certificate from a JSON string produced by :func:`certificate_to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return certificate_from_dict(data)
