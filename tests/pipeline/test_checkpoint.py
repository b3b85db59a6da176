"""Checkpoint/resume through the artifact cache.

The engine saves each node's outputs the moment that node finishes, with
an atomic, fsynced write.  Rerunning an interrupted run against the same
cache directory is therefore the pipeline's one resume mechanism: a
monolithic run resumes per node, a sharded run per shard.  The witness
is the engine's own accounting — a resumed run executes exactly the
nodes the interrupted one did not finish, and computes the same dataset.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.api import EngineConfig, FaultConfig, ObsContext, RunConfig, WorldConfig
from repro.api import run_pipeline, run_sharded
from repro.engine import cache as cache_module
from repro.engine import stages
from repro.engine.cache import CACHE_FORMAT, ArtifactCache, CacheMismatch, CacheWriteError
from repro.pipeline import sharded
from repro.pipeline.sharded import _normalized_world, stage_shard
from repro.synth.shards import ShardPlan

NO_FAULTS = FaultConfig(rate=0.0, seed=1)
KEY = "d" * 64

# four venues x two years: eight shard nodes plus the merge; shard nodes
# execute in name order, so KILLED is the fourth to run
RESUMABLE = RunConfig(
    world=WorldConfig(seed=5, scale=0.2, venues=4, years=(2016, 2017)), shards=4
)
KILLED = sorted(ShardPlan.from_config(_normalized_world(RESUMABLE)[0]).keys)[3]


def _datasets_equal(a, b) -> bool:
    tables = (
        "researchers",
        "author_positions",
        "conf_authors",
        "papers",
        "conferences",
        "role_slots",
    )
    return all(getattr(a, t).equals(getattr(b, t)) for t in tables)


def _cached(result) -> set[str]:
    """The stages the run served from the cache."""
    return {name for name, stage in result.stages.items() if stage.cached}


def _shard_or_die(spec, params, inputs):
    """The shard body, except that the fourth shard to run dies."""
    if spec.key == KILLED:
        raise RuntimeError(f"shard {spec.key} killed")
    return stage_shard(spec, params, inputs)


def _infer_dies(params, inputs):
    raise RuntimeError("infer killed")


class TestCheckpointStore:
    """The artifact cache is the run's checkpoint store: durable writes."""

    def test_stage_roundtrip(self, tmp_path):
        """A stage's outputs saved by one run are loaded by the next run
        that opens the same directory."""
        first = ArtifactCache(tmp_path / "ck")
        assert not first.has("ingest", KEY)
        first.save("ingest", KEY, {"payload": [1, 2, 3]})
        resumed = ArtifactCache(tmp_path / "ck")
        assert resumed.has("ingest", KEY)
        assert resumed.load("ingest", KEY) == {"payload": [1, 2, 3]}

    def test_resume_against_other_fingerprint_raises(self, tmp_path):
        """A directory stamped by another cache format is refused on reopen
        and left as it was."""
        ArtifactCache(tmp_path / "ck")
        meta = tmp_path / "ck" / "meta.json"
        other = dict(CACHE_FORMAT, entry=CACHE_FORMAT["entry"] + 1)
        meta.write_text(json.dumps(other), encoding="utf-8")
        with pytest.raises(CacheMismatch):
            ArtifactCache(tmp_path / "ck")
        assert json.loads(meta.read_text(encoding="utf-8")) == other

    def test_resume_on_fresh_dir_starts_clean(self, tmp_path):
        root = tmp_path / "never-written"
        assert ArtifactCache.if_exists(root) is None
        cache = ArtifactCache(root)  # nothing to reuse: behaves like a first run
        assert cache.entries() == []
        with pytest.raises(KeyError):
            cache.load("ingest", KEY)

    def test_atomic_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        """Regression: entries must be durable, not just atomic.

        Without an fsync of the temp file *and* the directory entry, a
        crash after ``os.replace`` can leave a truncated pickle under the
        final name — which a later run trusts.
        """
        cache = ArtifactCache(tmp_path / "cache")
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            cache_module.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        cache.save("ingest", KEY, {"payload": [1, 2, 3]})
        # one fsync for the temp file, one for the parent directory
        assert len(synced) == 2
        assert cache.load("ingest", KEY) == {"payload": [1, 2, 3]}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("ingest", KEY, {"payload": list(range(50))})
        leftovers = [p for p in (tmp_path / "cache").rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_failed_write_cleans_tmp_and_raises_typed_error(
        self, tmp_path, monkeypatch
    ):
        """Regression: a mid-stream write failure must not leave debris.

        A disk-full/quota/I/O error inside the atomic write used to
        propagate the raw ``OSError`` and abandon the partial ``*.tmp``
        file for later directory scans to trip over.  Now the temp file
        is removed and the failure surfaces as ``CacheWriteError``.
        """
        cache = ArtifactCache(tmp_path / "cache")

        def exploding_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "fsync", exploding_fsync)
        with pytest.raises(CacheWriteError) as excinfo:
            cache.save("ingest", KEY, {"payload": [1, 2, 3]})
        # typed, chained, and specific about what failed
        assert isinstance(excinfo.value.__cause__, OSError)
        assert "ingest" in str(excinfo.value)
        monkeypatch.undo()

        root = tmp_path / "cache"
        assert [p for p in root.rglob("*") if ".tmp" in p.name] == []
        assert not cache.has("ingest", KEY)  # final name never touched

    def test_failed_replace_cleans_tmp(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")

        def exploding_replace(src, dst):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(cache_module.os, "replace", exploding_replace)
        with pytest.raises(CacheWriteError):
            cache.save("ingest", KEY, {"payload": [1]})
        monkeypatch.undo()
        assert [p for p in (tmp_path / "cache").rglob("*") if ".tmp" in p.name] == []
        assert not cache.has("ingest", KEY)

    def test_write_error_is_an_oserror(self):
        # callers with broad OSError handling keep working unchanged
        assert issubclass(CacheWriteError, OSError)


class TestPipelineResume:
    def test_full_resume_makes_no_harvest_calls(self, small_world, tmp_path):
        def run():
            rc = RunConfig(
                faults=NO_FAULTS,
                obs=ObsContext(seed=1),
                engine=EngineConfig(cache_dir=str(tmp_path)),
            )
            return run_pipeline(rc, world=small_world)

        first = run()
        counters = first.obs.metrics.to_dict(exclude_timings=True)["counters"]
        n = first.degraded.total_editions
        assert counters["harvest.editions"] == n

        again = run()
        counters = again.obs.metrics.to_dict(exclude_timings=True)["counters"]
        assert "harvest.editions" not in counters
        assert "engine.nodes_executed" not in counters
        assert _cached(again) == set(again.stages)
        assert _datasets_equal(first.dataset, again.dataset)
        assert first.coverage == again.coverage
        assert first.degraded == again.degraded

    def test_killed_run_resumes_per_node(self, small_world, tmp_path, monkeypatch):
        rc = RunConfig(faults=NO_FAULTS, engine=EngineConfig(cache_dir=str(tmp_path)))
        monkeypatch.setattr(stages, "stage_infer", _infer_dies)
        with pytest.raises(RuntimeError, match="infer killed"):
            run_pipeline(rc, world=small_world)
        monkeypatch.undo()
        kept = {e.rsplit("-", 1)[0] for e in ArtifactCache(tmp_path).entries()}
        assert kept == {"ingest", "link", "enrich"}

        resumed = run_pipeline(rc, world=small_world)
        assert _cached(resumed) == {"ingest", "link", "enrich"}
        plain = run_pipeline(RunConfig(faults=NO_FAULTS), world=small_world)
        assert _datasets_equal(resumed.dataset, plain.dataset)
        assert resumed.degraded == plain.degraded

    @pytest.mark.scale
    def test_partial_resume_only_reharvests_missing(self, tmp_path, monkeypatch):
        """A sharded run killed at its fourth shard keeps every finished
        shard; the rerun executes exactly the missing shards plus the merge
        and merges a byte-identical dataset — serially and pooled."""
        clean = run_sharded(RESUMABLE)
        for workers in (1, 2):
            cache_dir = str(tmp_path / f"cache-w{workers}")
            rc = replace(
                RESUMABLE,
                shard_workers=workers,
                engine=EngineConfig(cache_dir=cache_dir),
            )
            monkeypatch.setattr(sharded, "stage_shard", _shard_or_die)
            with pytest.raises(RuntimeError, match="killed"):
                run_sharded(rc)
            monkeypatch.undo()
            kept = ArtifactCache(cache_dir).entries()
            assert not any(e.startswith(f"shard:{KILLED}-") for e in kept)
            assert not any(e.startswith("merge-") for e in kept)
            # serially exactly the shards that ran before the killed one;
            # a pool may also finish shards dispatched after it
            assert len(kept) == 3 if workers == 1 else len(kept) >= 3

            resumed = run_sharded(rc)
            assert resumed.shard_cache_hits == len(kept)
            assert resumed.executed_shards == len(resumed.plan) - len(kept)
            assert not resumed.merge_cache_hit
            assert _datasets_equal(resumed.dataset, clean.dataset)
            # repr, not ==: unresolved assignments carry a NaN confidence
            assert repr(resumed.dataset.assignments) == repr(clean.dataset.assignments)

    def test_checkpointed_run_matches_plain_run(self, small_world, small_result, tmp_path):
        rc = RunConfig(engine=EngineConfig(cache_dir=str(tmp_path)))
        result = run_pipeline(rc, world=small_world)
        assert _datasets_equal(result.dataset, small_result.dataset)
        assert result.coverage == small_result.coverage

    def test_resume_with_different_faults_recomputes(self, small_world, tmp_path):
        """Keys are content-addressed: another fault config never reuses
        (or is refused by) the entries of this one — it simply misses."""
        cache = EngineConfig(cache_dir=str(tmp_path))
        run_pipeline(RunConfig(faults=NO_FAULTS, engine=cache), world=small_world)
        other = run_pipeline(
            RunConfig(faults=FaultConfig(rate=0.2, seed=9), engine=cache),
            world=small_world,
        )
        assert _cached(other) == set()
        fresh = run_pipeline(
            RunConfig(faults=FaultConfig(rate=0.2, seed=9)), world=small_world
        )
        assert _datasets_equal(other.dataset, fresh.dataset)
        assert other.degraded == fresh.degraded
