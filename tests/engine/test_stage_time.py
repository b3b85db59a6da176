"""Stage timing: the engine times each node where it ran.

A run's ``stages`` mapping holds one :class:`~repro.engine.StageTime`
per node — seconds, entry count and whether the node was served from
the cache — and :func:`~repro.report.textreport.stage_table` prints it.
"""

import time

import pytest

from repro.engine import ArtifactCache, StageGraph, StageNode, run_dag
from repro.obs.ledger import build_run_record
from repro.pipeline import EngineConfig, RunConfig, run_pipeline
from repro.report.textreport import stage_table
from repro.synth import WorldConfig

from tests.engine.test_engine_run import N_NODES

pytestmark = pytest.mark.engine

NAP = 0.01


def _nap_a(params, inputs):
    time.sleep(NAP)
    return {"a": 1}


def _nap_b(params, inputs):
    time.sleep(NAP)
    return {"b": 2}


def _naps() -> StageGraph:
    return StageGraph(nodes=[StageNode("a", _nap_a), StageNode("b", _nap_b)])


def _run(cache_dir):
    return run_pipeline(
        RunConfig(
            world=WorldConfig(seed=11, scale=0.1),
            engine=EngineConfig(cache_dir=str(cache_dir)),
        )
    )


class TestStageTimes:
    def test_records_durations(self, tmp_path):
        stages = {}
        run_dag(_naps(), params={}, stages=stages)
        assert list(stages) == ["a", "b"]
        assert all(s.seconds >= NAP and s.count == 1 and not s.cached for s in stages.values())

        result = _run(tmp_path / "cache")
        assert len(result.stages) == N_NODES
        timing = build_run_record(result).timing
        assert timing["total"] == pytest.approx(
            sum(s.seconds for s in result.stages.values()), abs=1e-5
        )

    def test_pooled_nodes_are_timed_where_they_ran(self):
        stages = {}
        run_dag(_naps(), params={}, engine=EngineConfig(workers=2), stages=stages)
        assert list(stages) == ["a", "b"]
        assert all(s.seconds >= NAP and s.count == 1 for s in stages.values())

    def test_accumulates_repeated_stages(self, tmp_path):
        engine = EngineConfig(cache_dir=str(tmp_path))
        run_dag(_naps(), params={}, engine=engine)
        cache = ArtifactCache(tmp_path)
        [entry] = [e for e in cache.entries() if e.startswith("b-")]
        (cache.root / f"{entry}.stage.pkl").write_bytes(b"torn")
        stages = {}
        run_dag(_naps(), params={}, engine=engine, stages=stages)
        # the failed load and the execution after it: one entry, both summed
        assert stages["b"].count == 2 and not stages["b"].cached
        assert stages["b"].seconds >= NAP
        assert stages["a"].count == 1 and stages["a"].cached

    def test_report_contains_stage_names(self, tmp_path):
        cold = _run(tmp_path / "cache")
        table = stage_table(cold.stages)
        for name in ("world", "ingest", "link", "enrich", "infer", "dataset", "finalize"):
            assert name in table
        assert table.splitlines()[-1].startswith("total")
        assert "cache hit" not in table
        warm = stage_table(_run(tmp_path / "cache").stages).splitlines()
        assert all(line.endswith("(cache hit)") for line in warm[:-1])
