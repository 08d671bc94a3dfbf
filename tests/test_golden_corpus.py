"""Golden regression corpus: the paper's worked examples, pinned.

``tests/golden/`` holds serialized chase results (Figure 1's infinite
chases, the key-based intro chase) and containment certificates (the
Theorem 2 scenarios of the intro example, IND-only and key-based),
produced by ``tests/golden/regenerate.py``.  These tests replay every
document against *every* registered chase engine and compare the full
serialized form, so a future engine change cannot silently drift from the paper's
semantics: it either matches the corpus or fails here until the corpus
is deliberately regenerated and the diff reviewed.

Work-accounting counters (``triggers_examined``, ``index_hits``, the
columnar core's interner/union-find/posting probes) and the ``engine``
tag legitimately differ between implementations and are normalized away;
everything semantic — conjuncts, levels, traces, rule counts,
homomorphisms, certificate steps — must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseVariant, build_engine
from repro.containment.serialization import (
    certificate_from_dict,
    certificate_to_dict,
    chase_result_to_dict,
    containment_result_to_dict,
)
from repro.workloads.paper_examples import figure1_example, intro_example, intro_example_key_based

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ENGINES = ("legacy", "columnar")

CHASE_CASES = {
    "figure1_rchase_level4.json": ("figure1", ChaseVariant.RESTRICTED, 4),
    "figure1_ochase_level3.json": ("figure1", ChaseVariant.OBLIVIOUS, 3),
    "intro_key_based_rchase.json": ("intro_kb_q1", ChaseVariant.RESTRICTED, 3),
}

#: A chase document's statistics keys, written out so the wire shape is
#: pinned independently of ``ChaseStatistics.COUNTERS``.
CHASE_STATISTICS_KEYS = {
    "fd_steps", "ind_steps", "egd_steps", "tgd_steps",
    "redundant_ind_applications", "redundant_tgd_applications",
    "merged_conjuncts", "total_steps", "triggers_examined", "index_hits",
    "delta_seeded_matches", "trigger_cache_hits", "interned_terms",
    "union_find_unions", "union_find_finds", "column_probes",
}

CERTIFICATE_CASES = {
    "intro_certificate.json": "intro",
    "intro_key_based_certificate.json": "intro_kb",
}


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"missing golden file {name}; run PYTHONPATH=src python tests/golden/regenerate.py")
    return json.loads(path.read_text())


def chase_inputs(key: str):
    if key == "figure1":
        example = figure1_example()
        return example.query, example.dependencies
    if key == "intro_kb_q1":
        example = intro_example_key_based()
        return example.q1, example.dependencies
    raise AssertionError(f"unknown chase case {key}")


def normalize_chase(document: dict) -> dict:
    """Drop the per-engine work counters, keep every semantic field."""
    normalized = dict(document)
    normalized.pop("engine", None)
    statistics = dict(normalized.get("statistics", {}))
    statistics.pop("triggers_examined", None)
    statistics.pop("index_hits", None)
    statistics.pop("interned_terms", None)
    statistics.pop("union_find_unions", None)
    statistics.pop("union_find_finds", None)
    statistics.pop("column_probes", None)
    normalized["statistics"] = statistics
    return normalized


class TestGoldenChases:
    @pytest.mark.parametrize("name", sorted(CHASE_CASES))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chase_replay_matches_corpus(self, name, engine):
        example_key, variant, level = CHASE_CASES[name]
        query, sigma = chase_inputs(example_key)
        config = ChaseConfig(variant=variant, max_level=level, engine=engine)
        result = build_engine(query, sigma, config).run()
        replayed = chase_result_to_dict(result, include_trace=True)
        assert normalize_chase(replayed) == normalize_chase(load_golden(name))
        assert set(replayed["statistics"]) == CHASE_STATISTICS_KEYS


class TestGoldenCertificates:
    @pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
    def test_stored_certificate_still_verifies(self, name):
        document = load_golden(name)
        certificate = certificate_from_dict(document["certificate"])
        assert certificate.verify(), certificate.verification_errors()

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_containment_replay_matches_corpus(self, name, engine):
        example = (intro_example() if CERTIFICATE_CASES[name] == "intro"
                   else intro_example_key_based())
        solver = Solver(SolverConfig(chase_engine=engine, with_certificate=True))
        result = solver.is_contained(example.q2, example.q1, example.dependencies)
        assert result.holds and result.certificate is not None
        replayed = containment_result_to_dict(result)
        replayed["certificate"] = certificate_to_dict(result.certificate)
        assert replayed == load_golden(name)

    def test_without_dependencies_the_direction_flips(self):
        """Sanity anchor for the corpus: Σ is what makes Q2 ⊆ Q1 hold."""
        example = intro_example()
        solver = Solver()
        assert not solver.is_contained(example.q2, example.q1, None).holds
        assert solver.is_contained(example.q1, example.q2, None).holds
