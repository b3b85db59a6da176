"""Tests for the AnalysisDataset tables."""

import numpy as np
import pytest

from repro.gender.model import Gender
from repro.gender.sensitivity import reassign_unknowns


class TestTables:
    def test_tables_present(self, small_result):
        ds = small_result.dataset
        for name in (
            "researchers", "author_positions", "conf_authors", "papers",
            "conferences", "role_slots",
        ):
            assert getattr(ds, name).num_rows > 0

    def test_researchers_unique(self, small_result):
        ids = small_result.dataset.researchers["researcher_id"]
        assert len(ids) == len(set(ids))

    def test_positions_reference_researchers(self, small_result):
        ds = small_result.dataset
        known = set(ds.researchers["researcher_id"])
        assert set(ds.author_positions["researcher_id"]) <= known

    def test_first_last_flags(self, small_result):
        ds = small_result.dataset
        pos = ds.author_positions
        firsts = np.array([bool(x) for x in pos["is_first"]])
        # exactly one first author per paper
        papers = {}
        for pid, isf in zip(pos["paper_id"], firsts):
            papers.setdefault(pid, 0)
            papers[pid] += int(isf)
        assert all(v == 1 for v in papers.values())

    def test_single_author_paper_has_no_last(self, small_result):
        ds = small_result.dataset
        for rec in ds.papers.to_records():
            if rec["num_authors"] == 1:
                assert rec["last_author"] is None

    def test_conference_metadata(self, small_result):
        ds = small_result.dataset
        confs = {r["conference"]: r for r in ds.conferences.to_records()}
        assert confs["SC"]["double_blind"] is True
        assert confs["SC"]["diversity_chair"] is True
        assert confs["IPDPS"]["double_blind"] is False
        assert confs["HPCC"]["code_of_conduct"] is False

    def test_gender_values(self, small_result):
        g = small_result.dataset.researchers.col("gender")
        vals = {v for v in g.values if v is not None}
        assert vals <= {"F", "M"}

    def test_unknown_count_matches_missing(self, small_result):
        ds = small_result.dataset
        assert ds.unknown_count() == int(ds.researchers.col("gender").is_missing().sum())

    def test_known_gender_view(self, small_result):
        ds = small_result.dataset
        known = ds.known_gender_researchers()
        assert known.num_rows == ds.researchers.num_rows - ds.unknown_count()


class TestWithAssignments:
    def test_sensitivity_rebuild(self, small_result):
        ds = small_result.dataset
        forced = ds.with_assignments(reassign_unknowns(ds.assignments, Gender.F))
        assert forced.unknown_count() == 0
        # non-gender columns untouched
        assert forced.papers["paper_id"].tolist() == ds.papers["paper_id"].tolist()
        assert forced.researchers.num_rows == ds.researchers.num_rows

    def test_first_gender_updated(self, small_result):
        ds = small_result.dataset
        forced = ds.with_assignments(reassign_unknowns(ds.assignments, Gender.F))
        before = sum(1 for g in ds.papers["first_gender"] if g == "F")
        after = sum(1 for g in forced.papers["first_gender"] if g == "F")
        assert after >= before

    def test_original_unchanged(self, small_result):
        ds = small_result.dataset
        n_unknown = ds.unknown_count()
        ds.with_assignments(reassign_unknowns(ds.assignments, Gender.M))
        assert ds.unknown_count() == n_unknown


class TestRunner:
    def test_timer_stages(self, small_result):
        stages = set(small_result.stages)
        assert {"ingest", "link", "enrich", "infer", "dataset"} <= stages

    def test_coverage_property(self, small_result):
        cov = small_result.coverage
        assert set(cov) == {"manual", "genderize", "none"}
        assert sum(cov.values()) == pytest.approx(1.0)
