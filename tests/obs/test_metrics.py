"""Metrics registry unit tests and the pipeline determinism guarantee."""

import pytest

from repro.faults import FaultConfig
from repro.obs import ObsContext
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import RunConfig, run_pipeline
from repro.util.parallel import ParallelConfig

pytestmark = pytest.mark.obs


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counters["a"] == 5

    def test_gauges_overwrite(self):
        m = MetricsRegistry()
        m.set_gauge("g", 1.5)
        m.set_gauge("g", 2.5)
        assert m.gauges["g"] == 2.5

    def test_histogram_buckets(self):
        m = MetricsRegistry()
        for v in (0.5, 3, 7, 5000):
            m.observe("h", v, buckets=(1, 5, 10))
        h = m.histograms["h"]
        assert h["counts"] == [1, 1, 1, 1]  # <=1, <=5, <=10, overflow
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(5010.5)

    def test_merge_is_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        b.inc("d")
        a.observe("h", 1, buckets=(1, 2))
        b.observe("h", 2, buckets=(1, 2))
        a.merge(b)
        assert a.counters == {"c": 5, "d": 1}
        assert a.histograms["h"]["counts"] == [1, 1, 0]

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        b.observe("h", 1, buckets=(5, 6))
        with pytest.raises(ValueError, match="mismatched buckets"):
            a.merge(b)

    def test_to_dict_sorted_and_timing_excluded(self):
        m = MetricsRegistry()
        m.inc("z")
        m.inc("a")
        m.set_gauge("time.stage.ingest", 0.5)
        m.set_gauge("pipeline.rows", 10)
        d = m.to_dict(exclude_timings=True)
        assert list(d["counters"]) == ["a", "z"]
        assert "time.stage.ingest" not in d["gauges"]
        assert d["gauges"]["pipeline.rows"] == 10
        assert "time.stage.ingest" in m.to_dict()["gauges"]


class TestPipelineDeterminism:
    def test_two_seeded_runs_identical_metrics(self, small_world):
        runs = []
        for _ in range(2):
            obs = ObsContext(seed=small_world.seed)
            run_pipeline(RunConfig(obs=obs, validation="repair"), world=small_world)
            runs.append(obs)
        assert runs[0].metrics.to_dict(exclude_timings=True) == runs[1].metrics.to_dict(
            exclude_timings=True
        )
        assert runs[0].tracer.identity() == runs[1].tracer.identity()

    def test_metrics_independent_of_worker_count(self, small_world):
        def run(workers):
            obs = ObsContext(seed=small_world.seed)
            run_pipeline(
                RunConfig(
                    obs=obs,
                    faults=FaultConfig(rate=0.3, seed=5),
                    parallel=ParallelConfig(workers=workers, min_items_per_worker=1),
                ),
                world=small_world,
            )
            return obs

        serial, parallel = run(1), run(2)
        assert serial.metrics.to_dict(True) == parallel.metrics.to_dict(True)
        assert serial.tracer.identity() == parallel.tracer.identity()

    def test_pipeline_populates_expected_series(self, small_world):
        obs = ObsContext(seed=small_world.seed)
        result = run_pipeline(RunConfig(obs=obs), world=small_world)
        c = obs.metrics.counters
        g = obs.metrics.gauges
        assert c["harvest.editions"] == len(result.linked.conferences)
        assert c["enrich.rows"] == len(result.dataset.researchers)
        assert g["pipeline.researchers"] == result.dataset.researchers.num_rows
        assert any(k.startswith("time.stage.") for k in g)
        assert obs.metrics.histograms["harvest.papers_per_edition"]["count"] == c[
            "harvest.editions"
        ]

    def test_fault_metrics_feed_registry(self, small_world):
        obs = ObsContext(seed=small_world.seed)
        result = run_pipeline(
            RunConfig(obs=obs, faults=FaultConfig(rate=0.4, seed=3)), world=small_world
        )
        c = obs.metrics.counters
        assert sum(v for k, v in c.items() if k.startswith("faults.injected.")) > 0
        assert c.get("faults.retries", 0) == result.degraded.retries

    def test_contract_metrics_feed_registry(self, small_world):
        obs = ObsContext(seed=small_world.seed)
        result = run_pipeline(
            RunConfig(obs=obs, faults=FaultConfig(rate=0.4, seed=3), validation="repair"),
            world=small_world,
        )
        c = obs.metrics.counters
        dispositions = len(result.contracts.quarantine.entries)
        counted = sum(
            v
            for k, v in c.items()
            if k.startswith(("contracts.repaired.", "contracts.held.", "contracts.flagged."))
        )
        assert counted == dispositions


class TestTabularMetrics:
    def test_groupby_and_join_counted_under_context(self):
        from repro.obs.context import use
        from repro.tabular import Table, inner_join

        left = Table.from_records(
            [{"k": "a", "x": 1}, {"k": "b", "x": 2}, {"k": "a", "x": 3}]
        )
        right = Table.from_records([{"k": "a", "y": 10}, {"k": "b", "y": 20}])
        obs = ObsContext(seed=0)
        with use(obs):
            joined = inner_join(left, right, on="k")
            left.groupby("k").size()
        assert obs.metrics.counters["tabular.join.calls"] == 1
        assert obs.metrics.counters["tabular.join.rows_out"] == joined.num_rows
        assert obs.metrics.counters["tabular.groupby.calls"] >= 1
        assert obs.metrics.counters["tabular.groupby.rows_in"] >= 3

    def test_no_context_no_counting(self):
        from repro.obs.context import current

        assert current().enabled is False


class TestSnapshotKeyOrder:
    """Regression: metrics.json key order must not depend on worker merge order."""

    def test_histogram_registration_order_does_not_leak(self):
        """Workers can register histograms in any order; the snapshot sorts."""
        import json

        def build(order):
            main = MetricsRegistry()
            for name in order:
                worker = MetricsRegistry()
                worker.observe(name, 5)
                # simulate the serialization boundary: buckets arrive as lists
                worker.histograms[name]["buckets"] = list(
                    worker.histograms[name]["buckets"]
                )
                main.merge(worker)
            return main

        a = build(["harvest.papers_per_edition", "enrich.citations"])
        b = build(["enrich.citations", "harvest.papers_per_edition"])
        # byte-identical WITHOUT sort_keys: insertion order is already sorted
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert list(a.to_dict()["histograms"]) == sorted(a.to_dict()["histograms"])

    def test_histogram_inner_fields_are_sorted(self):
        m = MetricsRegistry()
        m.observe("h", 3)
        snap = m.to_dict()["histograms"]["h"]
        assert list(snap) == ["buckets", "count", "counts", "sum"]

    def test_parallel_pipeline_snapshot_is_byte_stable(self, small_world):
        """The end-to-end guarantee: serial and 3-worker runs serialize alike."""
        import json

        def snapshot(workers):
            obs = ObsContext(seed=small_world.seed)
            run_pipeline(
                RunConfig(
                    obs=obs,
                    parallel=ParallelConfig(workers=workers, min_items_per_worker=1)
                    if workers
                    else None,
                ),
                world=small_world,
            )
            return json.dumps(obs.metrics.to_dict(exclude_timings=True))

        assert snapshot(0) == snapshot(3)
