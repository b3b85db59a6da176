"""End-to-end determinism and pipeline-fidelity tests."""

import numpy as np
import pytest

from repro.gender.model import Gender
from repro.pipeline import RunConfig, run_pipeline
from repro.synth import WorldConfig
from repro.util.parallel import ParallelConfig


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        cfg = WorldConfig(seed=77, scale=0.15, include_timeline=False)
        a = run_pipeline(RunConfig(world=cfg))
        b = run_pipeline(RunConfig(world=cfg))
        assert a.dataset.researchers.equals(b.dataset.researchers)
        assert a.dataset.papers.equals(b.dataset.papers)

    def test_parallel_ingest_same_dataset(self):
        cfg = WorldConfig(seed=78, scale=0.15, include_timeline=False)
        serial = run_pipeline(RunConfig(world=cfg))
        par = run_pipeline(
            RunConfig(world=cfg, parallel=ParallelConfig(workers=3, min_items_per_worker=1))
        )
        assert serial.dataset.researchers.equals(par.dataset.researchers)
        assert serial.dataset.author_positions.equals(par.dataset.author_positions)


class TestPipelineFidelity:
    """The pipeline must recover the ground truth it cannot see."""

    def test_inferred_genders_match_truth(self, small_result):
        world = small_result.world
        linked = small_result.linked
        truth_by_name = {}
        collided = set()
        from repro.names.parsing import name_key

        for p in world.registry.people.values():
            k = name_key(p.full_name)
            if k in truth_by_name:
                collided.add(k)
            truth_by_name[k] = p.true_gender
        correct = wrong = 0
        for rid, a in small_result.dataset.assignments.items():
            rec = linked.researchers[rid]
            if rec.name_key in collided or not a.known:
                continue
            if a.gender is truth_by_name[rec.name_key]:
                correct += 1
            else:
                wrong += 1
        assert correct / (correct + wrong) > 0.98

    def test_country_resolution_mostly_correct(self, small_result):
        from repro.names.parsing import name_key

        world = small_result.world
        truth = {}
        for p in world.registry.people.values():
            truth[name_key(p.full_name)] = p.country_code or None
        r = small_result.dataset.researchers
        checked = correct = 0
        for rid, name, country in zip(
            r["researcher_id"], r["full_name"], r["country"]
        ):
            true_c = truth.get(name_key(name))
            if true_c and country is not None:
                checked += 1
                correct += int(country == true_c)
        assert checked > 100
        assert correct / checked > 0.97

    def test_unknown_gender_people_have_no_evidence(self, small_result):
        from repro.gender.webevidence import EvidenceKind
        from repro.names.parsing import name_key

        world = small_result.world
        ev_by_name = {}
        for pid, p in world.registry.people.items():
            ev_by_name.setdefault(name_key(p.full_name), []).append(
                world.evidence_availability[pid]
            )
        linked = small_result.linked
        for rid, a in small_result.dataset.assignments.items():
            if a.known:
                continue
            evs = ev_by_name.get(linked.researchers[rid].name_key, [])
            # unknown researchers either collided (multiple bearers) or had
            # no usable page
            assert len(evs) != 1 or evs[0] is EvidenceKind.NONE


class TestGroundTruthIsolation:
    def test_dataset_contains_no_truth_fields(self, small_result):
        cols = set(small_result.dataset.researchers.columns)
        assert "true_gender" not in cols
        assert "web_evidence" not in cols
