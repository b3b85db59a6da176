"""Load on read: a warm run unpickles only the outputs something reads.

Cache entries hold one pickle per output, and ``run_dag(want=...)``
unpickles a cached node only for the outputs its caller wants or a node
that executes consumes.  These tests spy on ``ArtifactCache.load`` to
pin what a warm run reads, and check that the accounting — hits,
misses, stage facts, event counts — is what a run that loaded every
entry reports, also when an entry turns out damaged part-way.
"""

import hashlib
import json
import pickle

import pytest

from repro.cli import main
from repro.engine import (
    ArtifactCache,
    CacheMismatch,
    StageGraph,
    StageNode,
    SupervisorConfig,
    run_dag,
)
from repro.obs import ObsContext
from repro.obs.context import use as obs_use
from repro.obs.ledger import build_run_record
from repro.pipeline import EngineConfig, RunConfig, run_pipeline
from repro.report.textreport import full_report
from repro.synth import WorldConfig

from tests.engine.test_engine_run import N_NODES, _dataset_bytes

pytestmark = pytest.mark.engine

SMALL = WorldConfig(seed=11, scale=0.25)
#: what run_pipeline reads of a warm monolithic run, per node
WANTED = {
    ("world", ("timeline",)),
    ("infer", ("inference",)),
    ("dataset", ("dataset",)),
    ("finalize", ("degraded", "contracts")),
}


@pytest.fixture
def loads(monkeypatch):
    """Every ``ArtifactCache.load`` call as ``(node, outputs)``."""
    calls = []
    original = ArtifactCache.load

    def spy(self, node, key, outputs=None):
        calls.append((node, None if outputs is None else tuple(outputs)))
        return original(self, node, key, outputs=outputs)

    monkeypatch.setattr(ArtifactCache, "load", spy)
    return calls


def _config(cache_dir, world=SMALL, obs=None, supervise=False, **kw):
    return RunConfig(
        world=world,
        validation="repair",
        engine=EngineConfig(
            cache_dir=str(cache_dir),
            supervise=SupervisorConfig() if supervise else None,
        ),
        obs=obs,
        **kw,
    )


def _damage(cache_dir, *nodes):
    cache = ArtifactCache(cache_dir)
    for entry in cache.entries():
        if entry.rsplit("-", 1)[0] in nodes:
            (cache.root / f"{entry}.stage.pkl").write_bytes(b"torn")


def _accounting(result, rc):
    body = build_run_record(result, rc).body
    return {k: body[k] for k in ("stages", "cache", "events")}


class TestWarmReads:
    def test_warm_paper_run_unpickles_the_five_wanted_outputs(self, tmp_path, loads):
        rc = _config(tmp_path / "cache", world=WorldConfig(seed=7, scale=1.0))
        cold = run_pipeline(rc)
        assert loads == []
        obs = ObsContext(seed=1)
        warm = run_pipeline(_config(tmp_path / "cache", world=rc.world, obs=obs))
        assert set(loads) == WANTED and len(loads) == len(WANTED)
        # every node is still one hit: unread nodes count as served
        assert obs.metrics.counters["engine.cache.hits"] == N_NODES
        assert "engine.nodes_executed" not in obs.metrics.counters
        assert set(warm.cached_nodes) == {n for n, _ in WANTED} | {
            "ingest", "link", "enrich",
        }
        assert all(stage.cached for stage in warm.stages.values())
        assert _dataset_bytes(warm) == _dataset_bytes(cold)
        assert warm.timeline == cold.timeline and warm.timeline

    @pytest.mark.scale
    def test_warm_sharded_run_loads_only_the_merge(self, tmp_path, loads):
        rc = RunConfig(
            world=WorldConfig(seed=3, scale=0.25),
            shards=3,
            engine=EngineConfig(cache_dir=str(tmp_path / "cache")),
        )
        cold = run_pipeline(rc)
        warm = run_pipeline(rc)
        assert loads == [("merge", ("merged",))]
        assert warm.shard_cache_hits == len(cold.plan) and warm.merge_cache_hit
        assert warm.timeline == [] and warm.world is None
        assert _dataset_bytes_sharded(warm) == _dataset_bytes_sharded(cold)

    def test_run_dag_default_loads_every_output(self, tmp_path, loads):
        engine = EngineConfig(cache_dir=str(tmp_path / "cache"))
        run_dag(_two_node_graph(), params={}, engine=engine)
        warm = run_dag(_two_node_graph(), params={}, engine=engine)
        assert loads == [("a", ("a", "a2")), ("b", ("b",))]
        assert warm.artifacts == {"a": 1, "a2": 2, "b": 3}

    def test_want_loads_only_what_it_names(self, tmp_path, loads):
        engine = EngineConfig(cache_dir=str(tmp_path / "cache"))
        run_dag(_two_node_graph(), params={}, engine=engine)
        warm = run_dag(_two_node_graph(), params={}, engine=engine, want=("a2",))
        assert loads == [("a", ("a2",))]
        assert warm.artifacts == {"a2": 2}
        assert warm.cache_hits == 2 and warm.executed == 0


@pytest.mark.chaos
class TestPerOutputPayload:
    KEY = "c" * 64

    def test_load_unpickles_the_named_outputs(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("n", self.KEY, {"small": 1, "big": list(range(1000))})
        assert cache.load("n", self.KEY, outputs=["small"]) == {"small": 1}
        assert cache.load("n", self.KEY) == {"small": 1, "big": list(range(1000))}

    def test_missing_output_is_a_quarantined_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("n", self.KEY, {"small": 1})
        with pytest.raises(KeyError):
            cache.load("n", self.KEY, outputs=["other"])
        assert len(cache.quarantined()) == 1

    def test_verify_unpickles_every_output(self, tmp_path):
        """An output no run reads is still checked by verify."""
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("n", self.KEY, {"small": 1, "big": 2})
        path = cache.entry_path("n", self.KEY)
        envelope = pickle.loads(path.read_bytes())
        parts = pickle.loads(envelope["payload"])
        parts["big"] = b"not a pickle"
        envelope["payload"] = pickle.dumps(parts)
        envelope["digest"] = hashlib.sha256(envelope["payload"]).hexdigest()
        path.write_bytes(pickle.dumps(envelope))
        assert cache.load("n", self.KEY, outputs=["small"]) == {"small": 1}
        report = cache.verify()
        assert report["quarantined"] == [("n-" + self.KEY[:24], "unpicklable-payload")]

    def test_entry_two_directory_is_refused(self, tmp_path):
        root = tmp_path / "cache"
        ArtifactCache(root)
        meta = json.loads((root / "meta.json").read_text())
        (root / "meta.json").write_text(json.dumps({**meta, "entry": 2}))
        with pytest.raises(CacheMismatch):
            ArtifactCache(root)


def _produce_a(params, inputs):
    return {"a": 1, "a2": 2}


def _produce_b(params, inputs):
    return {"b": inputs["a"] + 2}


def _two_node_graph():
    return StageGraph(
        nodes=[
            StageNode("a", _produce_a, outputs=("a", "a2")),
            StageNode("b", _produce_b, inputs=("a",)),
        ]
    )


def _dataset_bytes_sharded(result):
    return pickle.dumps(
        {t: getattr(result.dataset, t).to_records() for t in ("researchers", "papers")}
    )


@pytest.mark.chaos
class TestDamagedEntries:
    @pytest.mark.parametrize("supervise", [False, True], ids=["bare", "supervised"])
    def test_damaged_dataset_entry_reexecutes_on_demand_inputs(
        self, tmp_path, loads, supervise
    ):
        cold = run_pipeline(_config(tmp_path / "cache", supervise=supervise))
        _damage(tmp_path / "cache", "dataset")
        obs = ObsContext(seed=2)
        rc = _config(tmp_path / "cache", obs=obs, supervise=supervise)
        healed = run_pipeline(rc)

        # dataset's inputs come from nodes whose outputs nothing else
        # reads: they are unpickled on demand, after its load failed
        assert ("link", ("linked",)) in loads and ("enrich", ("enrichment",)) in loads
        assert healed.executed_nodes == ("dataset",)
        assert len(healed.cached_nodes) == N_NODES - 1
        assert _dataset_bytes(healed) == _dataset_bytes(cold)
        acct = _accounting(healed, rc)
        # a run that loaded every entry reports exactly this
        assert acct["cache"] == {"hits": 6, "misses": 1}
        assert acct["stages"]["dataset"] == {"count": 2, "cached": False, "resumed": False}
        assert all(
            s == {"count": 1, "cached": True, "resumed": False}
            for name, s in acct["stages"].items()
            if name != "dataset"
        )
        events = acct["events"]
        assert (events["cache.hit"], events["cache.miss"]) == (6, 1)
        assert (events["cache.quarantine"], events["cache.store"]) == (1, 1)
        assert events["span.open"] == events["span.close"] == 2 * N_NODES + 2
        assert ArtifactCache(tmp_path / "cache").verify()["ok"] == N_NODES

    def test_damaged_chain_is_loaded_or_executed_upstream(self, tmp_path):
        """dataset, link and enrich damaged: the failed reads cascade."""
        cold = run_pipeline(_config(tmp_path / "cache"))
        _damage(tmp_path / "cache", "dataset", "link", "enrich")
        obs = ObsContext(seed=3)
        healed = run_pipeline(_config(tmp_path / "cache", obs=obs))
        assert sorted(healed.executed_nodes) == ["dataset", "enrich", "link"]
        c = obs.metrics.counters
        assert (c["engine.cache.hits"], c["engine.cache.misses"]) == (4, 3)
        assert c["engine.cache.quarantined"] == 3
        assert _dataset_bytes(healed) == _dataset_bytes(cold)
        assert ArtifactCache(tmp_path / "cache").verify()["ok"] == N_NODES

    def test_unread_damaged_entry_stays_until_verify(self, tmp_path, capsys):
        run_pipeline(_config(tmp_path / "cache"))
        _damage(tmp_path / "cache", "link")
        obs = ObsContext(seed=4)
        run_pipeline(_config(tmp_path / "cache", obs=obs))
        # nothing read link's outputs: a hit, and still on disk, damaged
        assert obs.metrics.counters["engine.cache.hits"] == N_NODES
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.quarantined() == []
        code = main(["--cache-dir", str(tmp_path / "cache"), "cache", "verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined link-" in out and "unreadable" in out
        assert [n.split("-")[0] for n in cache.quarantined()] == ["link"]


class TestLazyFields:
    def test_lazy_world_and_linked_equal_the_cold_runs(self, tmp_path, loads):
        cold = run_pipeline(_config(tmp_path / "cache"))
        warm = run_pipeline(_config(tmp_path / "cache"))
        assert ("world", ("world",)) not in loads
        # the stores inside a world define no ==, so worlds compare by
        # their pickles; linked records compare as dataclasses
        assert pickle.dumps(warm.world) == pickle.dumps(cold.world)
        assert warm.linked == cold.linked
        assert ("world", ("world",)) in loads and ("link", ("linked",)) in loads
        # read once, then held
        n = len(loads)
        assert warm.world is warm.world and warm.linked is warm.linked
        assert len(loads) == n
        assert warm.world_config == cold.world_config == SMALL

    def test_lazy_read_stays_out_of_the_runs_accounting(self, tmp_path):
        run_pipeline(_config(tmp_path / "cache"))
        obs = ObsContext(seed=5)
        rc = _config(tmp_path / "cache", obs=obs)
        warm = run_pipeline(rc)
        before = json.dumps(_accounting(warm, rc), sort_keys=True)
        with obs_use(obs):  # as under the CLI, which wraps the whole command
            warm.world, warm.linked
        assert json.dumps(_accounting(warm, rc), sort_keys=True) == before

    def test_full_report_identical_cold_and_warm(self, tmp_path):
        def text(result):
            # the wall-time line is the one line that legitimately differs
            return [l for l in full_report(result).splitlines() if "wall time" not in l]

        cold = run_pipeline(_config(tmp_path / "cache"))
        warm = run_pipeline(_config(tmp_path / "cache"))
        assert text(warm) == text(cold)
        assert "## SC/ISC case study" in "\n".join(text(warm))

    def test_evicted_world_entry_is_recomputed_on_access(self, tmp_path):
        cold = run_pipeline(_config(tmp_path / "cache"))
        warm = run_pipeline(_config(tmp_path / "cache"))
        cache = ArtifactCache(tmp_path / "cache")
        [world_entry] = [e for e in cache.entries() if e.startswith("world-")]
        (cache.root / f"{world_entry}.stage.pkl").unlink()
        assert pickle.dumps(warm.world) == pickle.dumps(cold.world)
        # the read healed the cache: the entry is back
        assert world_entry in cache.entries()

    def test_uncached_run_holds_world_and_linked(self, small_world):
        result = run_pipeline(RunConfig(), world=small_world)
        assert result.world is small_world
        assert result.linked is not None
        assert result.timeline == small_world.timeline
