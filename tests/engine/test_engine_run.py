"""End-to-end pipeline runs on the stage-DAG engine.

The acceptance bar from the redesign issue:

- a warm (fully cached) run re-executes **zero** stage bodies — the
  cache-hit counter equals the node count and ``engine.nodes_executed``
  never appears;
- cold, warm, and parallel runs produce identical ``PipelineResult``
  payloads (datasets byte-identical under pickle);
- ``RunConfig`` is the only calling convention: the deprecated
  ``run_pipeline(WorldConfig, ...)`` and keyword spellings raise
  ``TypeError``.
"""

import os

import pytest

from repro.engine import StageGraph, StageNode, SupervisorConfig, run_dag
from repro.faults import FaultConfig
from repro.obs import ObsContext
from repro.pipeline import EngineConfig, RunConfig, run_pipeline
from repro.synth import WorldConfig
from repro.util.parallel import ParallelConfig

pytestmark = pytest.mark.engine

SMALL = WorldConfig(seed=11, scale=0.25)
N_NODES = 7  # world, ingest, link, enrich, infer, dataset, finalize

TABLES = (
    "researchers",
    "author_positions",
    "conf_authors",
    "papers",
    "conferences",
    "role_slots",
)


def _datasets_equal(a, b) -> bool:
    return all(getattr(a, t).equals(getattr(b, t)) for t in TABLES)


def _dataset_bytes(result) -> bytes:
    """Canonical byte serialization of the analysis payload.

    ``repr`` over records rather than ``pickle.dumps`` over tables:
    pickle's memo encoding depends on *object sharing*, which legitimately
    differs between a freshly-computed graph and one reloaded from
    per-artifact cache entries even when every value is identical.
    """
    payload = {t: getattr(result.dataset, t).to_records() for t in TABLES}
    payload["coverage"] = sorted(result.coverage.items())
    payload["assignments"] = sorted(
        (k, repr(v)) for k, v in result.inference.assignments.items()
    )
    return repr(payload).encode("utf-8")


def _run(cache_dir, *, world=None, workers=None, refresh=False, obs=None, **kw):
    cfg = RunConfig(
        world=SMALL,
        engine=EngineConfig(
            cache_dir=None if cache_dir is None else str(cache_dir),
            workers=workers,
            refresh=refresh,
        ),
        obs=obs,
        **kw,
    )
    return run_pipeline(cfg, world=world)


class TestWarmRunSkipsStageBodies:
    def test_cold_run_executes_every_node(self, tmp_path):
        obs = ObsContext(seed=1)
        _run(tmp_path / "cache", obs=obs)
        c = obs.metrics.counters
        assert c.get("engine.nodes_executed", 0) == N_NODES
        assert c.get("engine.cache.misses", 0) == N_NODES
        assert c.get("engine.cache.hits", 0) == 0

    def test_warm_run_executes_zero_nodes(self, tmp_path):
        _run(tmp_path / "cache")
        obs = ObsContext(seed=2)
        _run(tmp_path / "cache", obs=obs)
        c = obs.metrics.counters
        assert c.get("engine.cache.hits", 0) == N_NODES
        assert c.get("engine.cache.misses", 0) == 0
        # zero stage bodies ran: the execution counter never appeared
        assert "engine.nodes_executed" not in c

    def test_refresh_recomputes_despite_cache(self, tmp_path):
        _run(tmp_path / "cache")
        obs = ObsContext(seed=3)
        _run(tmp_path / "cache", refresh=True, obs=obs)
        c = obs.metrics.counters
        assert c.get("engine.nodes_executed", 0) == N_NODES
        assert c.get("engine.cache.hits", 0) == 0

    def test_prebuilt_world_graph_has_six_nodes(self, small_world, tmp_path):
        obs = ObsContext(seed=4)
        _run(tmp_path / "cache", world=small_world, obs=obs)
        assert obs.metrics.counters.get("engine.nodes_executed", 0) == N_NODES - 1
        warm = ObsContext(seed=5)
        _run(tmp_path / "cache", world=small_world, obs=warm)
        assert warm.metrics.counters.get("engine.cache.hits", 0) == N_NODES - 1


def _pid(params, inputs):
    return {"linked": os.getpid()}


def _enrich_pid(params, inputs):
    return {"enrich": os.getpid()}


def _infer_pid(params, inputs):
    return {"infer": os.getpid()}


def _pid_graph() -> StageGraph:
    return StageGraph(
        nodes=[
            StageNode("link", _pid, outputs=("linked",)),
            StageNode("enrich", _enrich_pid, inputs=("linked",)),
            StageNode("infer", _infer_pid, inputs=("linked",)),
        ]
    )


class TestDispatch:
    @pytest.mark.parametrize("supervise", [None, SupervisorConfig()])
    def test_more_workers_than_nodes_still_pools(self, supervise):
        run = run_dag(
            _pid_graph(), params={}, engine=EngineConfig(workers=4, supervise=supervise)
        )
        assert run["linked"] == os.getpid()  # a one-node generation runs here
        assert os.getpid() not in (run["enrich"], run["infer"])

    def test_supervised_serial_run_profiles_every_node(self, small_world):
        obs = ObsContext(seed=1, profile=True)
        result = run_pipeline(
            RunConfig(obs=obs, engine=EngineConfig(supervise=SupervisorConfig())),
            world=small_world,
        )
        assert list(obs.profiler.profiles) == list(result.stages)
        assert len(result.stages) == N_NODES - 1  # the world is prebuilt


class TestResultIdentity:
    def test_cold_warm_parallel_byte_identical(self, tmp_path):
        cold = _run(tmp_path / "cache")
        warm = _run(tmp_path / "cache")
        par = _run(tmp_path / "par-cache", workers=2)
        ref = _dataset_bytes(cold)
        assert _dataset_bytes(warm) == ref
        assert _dataset_bytes(par) == ref

    def test_serial_cache_is_hit_by_parallel_run(self, tmp_path):
        """Execution policy stays out of cache keys: a cache written
        serially serves a parallel run (and vice versa)."""
        cold = _run(tmp_path / "cache")  # serial write
        obs = ObsContext(seed=6)
        par = _run(tmp_path / "cache", workers=2, obs=obs)  # parallel read
        assert obs.metrics.counters.get("engine.cache.hits", 0) == N_NODES
        assert _dataset_bytes(par) == _dataset_bytes(cold)

    def test_ingest_parallelism_does_not_change_keys(self, tmp_path):
        serial = _run(tmp_path / "cache")
        obs = ObsContext(seed=7)
        fanned = _run(
            tmp_path / "cache", parallel=ParallelConfig(workers=2), obs=obs
        )
        assert obs.metrics.counters.get("engine.cache.hits", 0) == N_NODES
        assert _dataset_bytes(fanned) == _dataset_bytes(serial)


class TestEngineFeatureParity:
    def test_faults_and_validation_through_engine(self, small_world, tmp_path):
        faults = FaultConfig(rate=0.25, seed=3)
        uncached = run_pipeline(
            RunConfig(world=None, faults=faults, validation="repair"),
            world=small_world,
        )
        engine = _run(
            tmp_path / "cache",
            world=small_world,
            faults=faults,
            validation="repair",
        )
        warm = _run(
            tmp_path / "cache",
            world=small_world,
            faults=faults,
            validation="repair",
        )
        for got in (engine, warm):
            assert _datasets_equal(got.dataset, uncached.dataset)
            assert got.coverage == uncached.coverage
            assert got.degraded == uncached.degraded
            assert got.contracts.audit == uncached.contracts.audit
            assert len(got.contracts.quarantine.entries) == len(
                uncached.contracts.quarantine.entries
            )

    def test_strict_validation_passes_clean_run(self, small_world):
        result = _run(None, world=small_world, validation="strict")
        assert result.contracts is not None
        assert result.contracts.audit.ok


class TestRunConfigCompatibility:
    def test_legacy_kwargs_raise_type_error(self, small_world):
        with pytest.raises(TypeError, match="validation"):
            run_pipeline(world=small_world, validation="repair")

    def test_worldconfig_positional_raises_type_error(self):
        with pytest.raises(TypeError, match="must be a RunConfig"):
            run_pipeline(SMALL)

    def test_runconfig_spelling_emits_no_warning(self, small_world):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", DeprecationWarning)
            run_pipeline(RunConfig(world=None), world=small_world)

    def test_kwargs_alongside_runconfig_raise_type_error(self, small_world):
        with pytest.raises(TypeError, match="validation"):
            run_pipeline(RunConfig(world=None), world=small_world, validation="repair")

    def test_resume_without_checkpoint_dir_rejected(self):
        # the checkpoint fields are gone: resuming is a rerun on the cache
        with pytest.raises(TypeError, match="resume"):
            RunConfig(world=SMALL, resume=True)
        with pytest.raises(TypeError, match="checkpoint_dir"):
            RunConfig(world=SMALL, checkpoint_dir="ck")

    def test_bogus_config_type_rejected(self):
        with pytest.raises(TypeError, match="must be a RunConfig"):
            run_pipeline({"seed": 1})
