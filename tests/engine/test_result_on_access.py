"""A run's result bundle and its experiment seeds are read on first access.

A warm ``run_pipeline`` without an observability context reads no cache
entry: its result bundle (``dataset``, ``timeline``, ``inference`` and
``coverage``, ``degraded``, ``contracts``) is read in one go the first
time a caller touches any of it, through the run's own engine state,
and a warm ``run_experiment`` keys its entry from the seeds' digests
without touching the dataset at all.  These tests spy on
``ArtifactCache.load`` to pin what is read when, and check that a
post-run read heals a damaged or vanished cache as the run would have,
without touching the run's own accounting.
"""

import copy
import pickle
import shutil

import pytest

import repro.engine.executor as executor
from repro.engine import ArtifactCache, DeferredSeed
from repro.obs import ObsContext
from repro.obs.context import use as obs_use
from repro.obs.ledger import build_run_record
from repro.pipeline import EngineConfig, RunConfig, run_pipeline
from repro.report.experiments import EXPERIMENTS, run_experiment
from repro.synth import WorldConfig

from tests.engine.test_engine_run import N_NODES, _dataset_bytes
from tests.engine.test_load_on_read import WANTED, loads  # noqa: F401  (fixture)
from tests.report.test_experiment_entries import repickled

pytestmark = pytest.mark.engine

SMALL = WorldConfig(seed=11, scale=0.25)
BUNDLE = ("dataset", "timeline", "inference", "coverage", "degraded", "contracts")
FIELDS = BUNDLE + ("world", "linked")


def _config(cache_dir, obs=None):
    return RunConfig(
        world=SMALL,
        validation="repair",
        engine=EngineConfig(cache_dir=str(cache_dir)),
        obs=obs,
    )


def _fields(result) -> dict[str, bytes]:
    """Every field's bytes; the dataset's by its records.

    A dataset recomputed from inputs read back from the cache shares
    fewer equal strings between its columns than one computed from
    in-memory inputs, which even a pickle round trip keeps (see
    ``_dataset_bytes``); every other field pickles alike once
    round-tripped.
    """
    fields = {name: repickled(getattr(result, name)) for name in FIELDS if name != "dataset"}
    return {**fields, "dataset": _dataset_bytes(result)}


def _entry(cache_dir, node: str):
    cache = ArtifactCache(cache_dir)
    [entry] = [e for e in cache.entries() if e.rsplit("-", 1)[0] == node]
    return cache.root / f"{entry}.stage.pkl"


def _flip_a_bit(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestWarmReads:
    def test_warm_run_and_experiments_load_only_experiment_entries(self, tmp_path, loads):
        rc = _config(tmp_path / "cache")
        cold = run_pipeline(rc)
        texts = {e: run_experiment(e, cold)[1] for e in EXPERIMENTS}
        loads.clear()

        warm = run_pipeline(rc)
        assert loads == []
        assert {e: run_experiment(e, warm)[1] for e in EXPERIMENTS} == texts
        assert sorted(node for node, _ in loads) == sorted(
            f"experiment:{e}" for e in EXPERIMENTS
        )
        loads.clear()

        # the first access reads the whole bundle, once
        warm.dataset
        assert sorted(loads) == sorted(WANTED)
        for name in BUNDLE:
            getattr(warm, name)
        assert len(loads) == len(WANTED)
        assert _dataset_bytes(warm) == _dataset_bytes(cold)
        assert warm.timeline == cold.timeline and warm.timeline

    def test_cold_run_holds_every_field(self, tmp_path, loads):
        cold = run_pipeline(_config(tmp_path / "cache"))
        for name in FIELDS:
            getattr(cold, name)
        assert loads == []

    def test_ledgered_run_reads_the_bundle_for_its_gauges(self, tmp_path, loads):
        run_pipeline(_config(tmp_path / "cache"))
        obs = ObsContext(seed=1)
        warm = run_pipeline(_config(tmp_path / "cache", obs=obs))
        assert sorted(loads) == sorted(WANTED)
        assert obs.metrics.gauges["pipeline.editions"] > 0
        for name in BUNDLE:
            getattr(warm, name)
        assert len(loads) == len(WANTED)

    def test_post_run_read_computes_no_second_set_of_keys(self, tmp_path, monkeypatch):
        keyings = []
        original = executor._node_keys

        def counting(generations, digests):
            keyings.append([n.name for g in generations for n in g])
            return original(generations, digests)

        monkeypatch.setattr(executor, "_node_keys", counting)
        run_pipeline(_config(tmp_path / "cache"))
        keyings.clear()
        warm = run_pipeline(_config(tmp_path / "cache"))
        for name in FIELDS:
            getattr(warm, name)
        assert len(keyings) == 1


class TestEngineSeeds:
    def test_unread_fields_are_deferred_seeds_with_the_runs_digests(self, tmp_path, loads):
        run_pipeline(_config(tmp_path / "cache"))
        warm = run_pipeline(_config(tmp_path / "cache"))
        seeds, digests, engine = warm.engine_seeds()
        assert all(isinstance(seeds[name], DeferredSeed) for name in ("dataset", "timeline"))
        assert digests is not None and engine is not None
        assert loads == []

        warm.dataset  # once read, the fields are still the run's own
        read_seeds, read_digests, _ = warm.engine_seeds()
        assert read_seeds == {"dataset": warm.dataset, "timeline": warm.timeline}
        assert read_digests == digests

    def test_a_reassigned_field_is_not_the_runs_own(self, tmp_path):
        run_pipeline(_config(tmp_path / "cache"))
        warm = run_pipeline(_config(tmp_path / "cache"))
        warm.timeline = list(warm.timeline)
        seeds, digests, engine = warm.engine_seeds()
        assert digests is None and engine is None
        assert not isinstance(seeds["dataset"], DeferredSeed)

    def test_damaged_experiment_entry_reads_the_dataset_through_the_run(
        self, tmp_path, loads
    ):
        rc = _config(tmp_path / "cache")
        cold = run_pipeline(rc)
        text = run_experiment("T1", cold)[1]
        warm = run_pipeline(rc)
        _flip_a_bit(_entry(tmp_path / "cache", "experiment:T1"))
        loads.clear()
        assert run_experiment("T1", warm)[1] == text
        # the entry's load failed, so the node executed on the run's dataset
        assert set(WANTED) <= set(loads)
        cache = ArtifactCache(tmp_path / "cache")
        assert [q.split("-")[0] for q in cache.quarantined()] == ["experiment:T1"]
        loads.clear()
        assert run_experiment("T1", warm)[1] == text
        assert loads == [("experiment:T1", ("experiment:T1",))]


@pytest.mark.chaos
class TestHealing:
    def _warm(self, tmp_path):
        rc = _config(tmp_path / "cache")
        cold = run_pipeline(rc)
        return _fields(cold), run_pipeline(rc)

    def test_deleted_cache_directory_is_recomputed_and_repopulated(self, tmp_path):
        expected, warm = self._warm(tmp_path)
        shutil.rmtree(tmp_path / "cache")
        assert _fields(warm) == expected
        assert ArtifactCache(tmp_path / "cache").verify()["ok"] == N_NODES

    @pytest.mark.parametrize("node", ["dataset", "world"])
    def test_flipped_bit_is_quarantined_and_healed(self, tmp_path, node):
        expected, warm = self._warm(tmp_path)
        _flip_a_bit(_entry(tmp_path / "cache", node))
        assert _fields(warm) == expected
        cache = ArtifactCache(tmp_path / "cache")
        assert [q.rsplit("-", 1)[0] for q in cache.quarantined()] == [node]
        assert cache.verify()["ok"] == N_NODES

    def test_post_run_reads_leave_the_runs_accounting(self, tmp_path):
        rc = _config(tmp_path / "cache")
        run_pipeline(rc)
        warm = run_pipeline(rc)
        before = (copy.deepcopy(warm.stages), warm.executed_nodes, warm.cached_nodes)
        _flip_a_bit(_entry(tmp_path / "cache", "dataset"))
        caller = ObsContext(seed=6)
        with obs_use(caller):  # as under the CLI, which wraps the whole command
            for name in FIELDS:
                getattr(warm, name)
        assert (warm.stages, warm.executed_nodes, warm.cached_nodes) == before
        assert caller.metrics.counters == {} and caller.events.events == []

    def test_post_run_reads_leave_a_ledgered_runs_record(self, tmp_path):
        run_pipeline(_config(tmp_path / "cache"))
        obs = ObsContext(seed=7)
        rc = _config(tmp_path / "cache", obs=obs)
        warm = run_pipeline(rc)
        before = pickle.dumps(build_run_record(warm, rc).body)
        _flip_a_bit(_entry(tmp_path / "cache", "world"))
        with obs_use(obs):
            for name in FIELDS:
                getattr(warm, name)
        assert pickle.dumps(build_run_record(warm, rc).body) == before
