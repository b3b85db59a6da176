"""The report memo (METHODOLOGY §18) changes no value, byte or identity.

Every public ``*_report(ds, ...)`` that is a pure function of its
dataset is computed once per dataset object.  These tests pin what that
must not change: each memoized report equals a fresh computation on a
copy of the dataset; a dataset's pickle bytes, ``==`` and canonical
digest are the same before and after every experiment has run on it;
re-derived datasets start empty; concurrent served requests agree.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading

import pytest

from repro.analysis.blind import blind_report
from repro.analysis.experience import experience_report
from repro.analysis.far import far_report
from repro.analysis.geography import geography_report
from repro.analysis.hpctopic import hpc_topic_report
from repro.analysis.pc import pc_report
from repro.analysis.policies import policy_report
from repro.analysis.reception import reception_report
from repro.analysis.sector import sector_report
from repro.analysis.sensitivity import sensitivity_report
from repro.analysis.visible import visible_report
from repro.api import RunConfig, WorldConfig, run_sharded
from repro.gender.model import Gender
from repro.gender.sensitivity import reassign_unknowns
from repro.report.experiments import EXPERIMENTS, run_experiment
from tests.synth.test_world_golden import canonical_digest

REPORTS = (
    far_report,
    blind_report,
    pc_report,
    visible_report,
    geography_report,
    experience_report,
    reception_report,
    sector_report,
    hpc_topic_report,
    policy_report,
    sensitivity_report,
)


def fresh(ds):
    """A copy of ``ds`` with no memo (pickling drops it)."""
    return pickle.loads(pickle.dumps(ds))


@pytest.fixture(scope="module")
def sharded_result():
    rc = RunConfig(
        world=WorldConfig(seed=5, scale=0.25, venues=4, years=(2016, 2017)), shards=4
    )
    return run_sharded(rc)


def datasets(small_result, sharded_result):
    paper = fresh(small_result.dataset)
    return {
        "paper": paper,
        "sharded": fresh(sharded_result.dataset),
        "all_women": paper.with_assignments(reassign_unknowns(paper.assignments, Gender.F)),
        "all_men": paper.with_assignments(reassign_unknowns(paper.assignments, Gender.M)),
    }


@pytest.mark.parametrize("name", ["paper", "sharded", "all_women", "all_men"])
def test_memoized_reports_equal_fresh_computations(name, small_result, sharded_result):
    ds = datasets(small_result, sharded_result)[name]
    for report in REPORTS:
        first = report(ds)
        assert report(ds) is first, report.__name__  # served from the memo
        expected = report(fresh(ds))
        assert canonical_digest(first) == canonical_digest(expected), report.__name__


def test_memo_key_applies_defaults(small_result):
    ds = fresh(small_result.dataset)
    rep = reception_report(ds)
    assert reception_report(ds, 100) is rep
    assert reception_report(ds, outlier_threshold=100) is rep
    assert reception_report(ds, 101) is not rep


def test_experiments_leave_pickle_bytes_equality_and_digest(small_result):
    ds = fresh(small_result.dataset)
    before = pickle.dumps(ds)
    digest = canonical_digest(ds)
    same_fields = dataclasses.replace(ds)
    for exp_id in EXPERIMENTS:
        run_experiment(exp_id, dataclasses.replace(small_result, dataset=ds))
    assert ds.report_memo  # the experiments did fill it
    assert pickle.dumps(ds) == before
    assert canonical_digest(ds) == digest
    assert ds == same_fields and repr(ds) == repr(same_fields)
    assert not same_fields.report_memo
    assert not fresh(ds).report_memo


def test_rederived_datasets_start_empty(small_result):
    ds = fresh(small_result.dataset)
    far_report(ds)
    assert not ds.with_assignments(ds.assignments).report_memo
    assert not dataclasses.replace(ds).report_memo
    assert far_report(ds.with_assignments(ds.assignments)) is not far_report(ds)


@pytest.mark.serve
def test_concurrent_requests_return_identical_bodies(tmp_path):
    from repro.serve import AnalysisService, ServeConfig

    def service(name):
        return AnalysisService(
            ServeConfig(port=0, seed=7, scale=0.1, cache_dir=None,
                        obs_dir=str(tmp_path / name), deadline_s=60.0)
        )

    paths = ["/v1/far", "/v1/blind", "/v1/sensitivity"]
    sequential = service("sequential")
    expected = {p: sequential.handle(p, {}) for p in paths}

    racing = service("racing")
    start = threading.Barrier(4)
    got: dict[int, dict] = {}

    def client(i: int) -> None:
        start.wait()
        order = paths[i % 3:] + paths[: i % 3]  # different endpoints race
        got[i] = {p: racing.handle(p, {}) for p in order}

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        for p in paths:
            r = got[i][p]
            assert r.status == 200, json.loads(r.body)
            assert r.body == expected[p].body
            assert dict(r.headers)["ETag"] == dict(expected[p].headers)["ETag"]
