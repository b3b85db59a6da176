"""Benchmark OBS: cost of the observability layer.

The tracing/metrics layer promises to be cheap enough to leave on for
any diagnostic run, so the headline number is *relative overhead*: a
fully-instrumented pipeline (spans + metrics) must stay within 5% of the
bare pipeline (the target recorded in METHODOLOGY.md §10).  The micro
benches isolate the per-event costs that overhead is built from.
"""

import pytest

from repro.obs import MetricsRegistry, ObsContext, Tracer, chrome_trace
from repro.pipeline import RunConfig, run_pipeline
from repro.synth import WorldConfig, build_world


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(seed=7, scale=1.0, include_timeline=False))


def test_pipeline_bare(benchmark, world):
    """Baseline: the pipeline with observability off (NULL context)."""
    res = benchmark(run_pipeline, world=world)
    benchmark.extra_info["researchers"] = res.dataset.researchers.num_rows


def test_pipeline_observed(benchmark, world):
    """Spans + metrics on; compare against the bare bench (<5% target)."""

    def run():
        return run_pipeline(RunConfig(obs=ObsContext(seed=7)), world=world)

    res = benchmark(run)
    obs = res.obs
    benchmark.extra_info["spans"] = len(obs.tracer.finished)
    benchmark.extra_info["metric_series"] = len(obs.metrics)
    benchmark.extra_info["overhead_target_pct"] = 5.0


def test_pipeline_profiled(benchmark, world):
    """cProfile capture per stage — diagnostic mode, allowed to be slower."""

    def run():
        return run_pipeline(RunConfig(obs=ObsContext(seed=7, profile=True)), world=world)

    res = benchmark(run)
    benchmark.extra_info["profiled_stages"] = len(res.obs.profiler.profiles)


def test_span_open_close(benchmark):
    """Raw cost of one span (ID derivation + clock reads + bookkeeping)."""

    def run():
        t = Tracer(seed=7)
        for _ in range(1000):
            with t.span("stage"):
                pass
        return t

    t = benchmark(run)
    assert len(t.finished) == 1000


def test_metrics_inc_and_observe(benchmark):
    """Counter/histogram hot path (the faults layer's per-call cost)."""

    def run():
        m = MetricsRegistry()
        for i in range(1000):
            m.inc("faults.calls.harvest")
            m.observe("harvest.papers_per_edition", i % 120)
        return m

    m = benchmark(run)
    assert m.counters["faults.calls.harvest"] == 1000


def test_chrome_trace_export(benchmark, world):
    """Rendering a full run's trace to the Chrome trace-event document."""
    obs = ObsContext(seed=7)
    run_pipeline(RunConfig(obs=obs), world=world)

    doc = benchmark(chrome_trace, obs.tracer)
    benchmark.extra_info["events"] = len(doc["traceEvents"])
