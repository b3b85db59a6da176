"""Experiments as engine nodes: the entries ``experiment:<id>`` in the cache.

A run with a cache directory stores each experiment's ``(payload, text)``
the first time it is read and loads it on every later read; a run
without one computes it.  These tests pin that the three paths agree,
that a warm read runs no builder, which changes miss, which results
never touch the cache, that a damaged entry heals, and that reading
experiments leaves the run's own record alone.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import pytest

import repro.report.experiments as experiments
from repro.api import EngineConfig, ObsContext, RunConfig, WorldConfig, run_pipeline
from repro.cli import main
from repro.engine import ArtifactCache
from repro.gender.resolver import ResolverPolicy
from repro.obs.context import use as obs_use
from repro.obs.ledger import body_digest, build_run_record
from repro.pipeline.runner import PipelineResult
from repro.report.experiments import EXPERIMENTS, run_experiment
from tests.report.test_artifact_golden import (  # noqa: F401  (fixture)
    CONFIGS,
    GOLDEN,
    experiment_outputs,
    text_digest,
)

pytestmark = pytest.mark.engine

SMALL = RunConfig(world=WorldConfig(seed=3, scale=0.1), validation="repair")


def cached(rc: RunConfig, cache_dir: Path) -> RunConfig:
    return dataclasses.replace(rc, engine=EngineConfig(cache_dir=str(cache_dir)))


def entries(cache_dir: Path) -> list[str]:
    return [e for e in ArtifactCache(cache_dir).entries() if e.startswith("experiment:")]


def repickled(payload) -> bytes:
    """The pickle of ``payload`` after one pickle round trip.

    Pickle bytes record which equal strings are one object.  Unpickling
    re-interns attribute names, so a payload read from an entry shares
    fewer strings than the freshly built one and pickles a few bytes
    longer; once round-tripped, both pickle alike.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(payload)))


# ------------------------------------------------------------ (a) agreement


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_experiments_equal_computed_ones(name, experiment_outputs):
    none, cold, warm = (experiment_outputs(name, m) for m in ("none", "cold", "warm"))
    for exp_id in EXPERIMENTS:
        for out in (none, cold, warm):
            assert text_digest(out[exp_id][1]) == GOLDEN[name][exp_id]
        # a cold read returns the object it built, so it pickles byte for byte
        assert pickle.dumps(cold[exp_id][0]) == pickle.dumps(none[exp_id][0]), exp_id
        # a warm read returns the stored object
        assert pickle.dumps(warm[exp_id][0]) == repickled(none[exp_id][0]), exp_id


# ---------------------------------------------------------- (b) warm = read


def test_warm_read_runs_no_builder(tmp_path, monkeypatch):
    rc = cached(SMALL, tmp_path)
    cold = run_pipeline(rc)
    expected = {e: run_experiment(e, cold)[1] for e in EXPERIMENTS}
    assert len(entries(tmp_path)) == len(EXPERIMENTS)

    def boom(*args, **kwargs):
        raise AssertionError("a builder ran on a warm read")

    import repro.stats.kde

    monkeypatch.setattr(experiments, "far_report", boom)
    monkeypatch.setattr(repro.stats.kde, "gaussian_kde", boom)
    for exp_id in EXPERIMENTS:
        monkeypatch.setitem(EXPERIMENTS, exp_id, boom)
    warm = run_pipeline(rc)
    assert {e: run_experiment(e, warm)[1] for e in EXPERIMENTS} == expected
    # the same call on a result that is not the run's own computes, and fails
    with pytest.raises(AssertionError, match="builder ran"):
        run_experiment("S3.1", dataclasses.replace(warm))


def test_cold_read_stores_each_entry_once(tmp_path, monkeypatch):
    rc = cached(SMALL, tmp_path)
    result = run_pipeline(rc)
    saves = []
    real_save = ArtifactCache.save
    monkeypatch.setattr(
        ArtifactCache, "save", lambda self, node, *a: (saves.append(node), real_save(self, node, *a))
    )
    first = run_experiment("T1", result)
    again = run_experiment("T1", result)
    assert saves == ["experiment:T1"]
    assert again[1] == first[1]


# -------------------------------------------------------------- (c) misses


def test_source_seed_policy_and_validation_changes_miss(tmp_path, monkeypatch):
    run_experiment("T1", run_pipeline(cached(SMALL, tmp_path)))
    assert len(entries(tmp_path)) == 1

    # an edited package has another source digest
    with monkeypatch.context() as m:
        m.setattr(experiments, "source_digest", lambda: "0" * 64)
        run_experiment("T1", run_pipeline(cached(SMALL, tmp_path)))
    assert len(entries(tmp_path)) == 2

    variants = [
        dataclasses.replace(SMALL, world=WorldConfig(seed=4, scale=0.1)),
        dataclasses.replace(SMALL, policy=ResolverPolicy(genderize_threshold=0.9)),
        dataclasses.replace(SMALL, validation="audit"),
    ]
    for n, rc in enumerate(variants, start=3):
        run_experiment("T1", run_pipeline(cached(rc, tmp_path)))
        assert len(entries(tmp_path)) == n, rc

    # and the original configuration still hits its own entry
    run_experiment("T1", run_pipeline(cached(SMALL, tmp_path)))
    assert len(entries(tmp_path)) == len(variants) + 2


# ---------------------------------------------- (d) results that are not a run's


def test_replaced_and_hand_built_results_leave_the_cache_alone(tmp_path, monkeypatch):
    result = run_pipeline(cached(SMALL, tmp_path))
    calls = []
    for method in ("load", "save", "has"):
        real = getattr(ArtifactCache, method)
        monkeypatch.setattr(
            ArtifactCache,
            method,
            lambda self, *a, _real=real, _m=method, **k: (calls.append(_m), _real(self, *a, **k))[1],
        )
    expected = run_experiment("T2", dataclasses.replace(result))[1]
    others = [
        dataclasses.replace(result, dataset=result.dataset),
        dataclasses.replace(result, dataset=dataclasses.replace(result.dataset)),
        PipelineResult(
            dataset=result.dataset,
            coverage=result.coverage,
            world_config=result.world_config,
            stages={},
            timeline=result.timeline,
        ),
    ]
    reassigned = run_pipeline(cached(SMALL, tmp_path))
    reassigned.dataset = dataclasses.replace(reassigned.dataset)
    others.append(reassigned)
    del calls[:]  # the run itself loads its stages
    for other in others:
        assert other.engine_seeds()[1:] == (None, None)
        assert run_experiment("T2", other)[1] == expected
    assert calls == []
    assert entries(tmp_path) == []


# ------------------------------------------------------------- (e) healing


def test_damaged_entry_is_quarantined_and_recomputed(tmp_path):
    rc = cached(SMALL, tmp_path)
    expected = run_experiment("F2", run_pipeline(rc))[1]
    (entry,) = entries(tmp_path)
    path = tmp_path / f"{entry}.stage.pkl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    assert run_experiment("F2", run_pipeline(rc))[1] == expected
    cache = ArtifactCache(tmp_path)
    assert [q.split(".stage.pkl")[0] for q in cache.quarantined()] == [entry]
    assert entries(tmp_path) == [entry]  # healed: stored again
    assert run_experiment("F2", run_pipeline(rc))[1] == expected


def test_cache_verify_passes_after_a_cold_pass(tmp_path, capsys):
    result = run_pipeline(cached(SMALL, tmp_path))
    for exp_id in EXPERIMENTS:
        run_experiment(exp_id, result)
    assert main(["--cache-dir", str(tmp_path), "cache", "verify"]) == 0
    n = 7 + len(EXPERIMENTS)  # the seven stage nodes and every experiment
    assert f"checked {n} entries: {n} ok" in capsys.readouterr().out


# ------------------------------------------------------ (f) obs isolation


@pytest.mark.parametrize("warm", [False, True])
def test_reading_experiments_leaves_the_run_record_alone(tmp_path, warm):
    if warm:
        first = run_pipeline(cached(SMALL, tmp_path))
        for exp_id in EXPERIMENTS:
            run_experiment(exp_id, first)
    rc = dataclasses.replace(cached(SMALL, tmp_path), obs=ObsContext(seed=3))
    result = run_pipeline(rc)
    before = build_run_record(result, config=rc, command="entries").body
    events = len(result.obs.events)
    # the CLI runs a whole command, experiments included, under the context
    with obs_use(result.obs):
        texts = [run_experiment(e, result)[1] for e in EXPERIMENTS]
    after = build_run_record(result, config=rc, command="entries").body
    assert all(texts)
    assert list(after["stages"]) == list(before["stages"])
    assert len(result.obs.events) == events
    assert after == before
    assert body_digest(after) == body_digest(before)
