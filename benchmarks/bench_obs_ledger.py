"""Benchmark OBS-LEDGER: cost of recording a run in the ledger.

The ledger promises that leaving ``--ledger`` on costs essentially
nothing: assembling the record re-runs the three headline analyses on
the already-built dataset and the append is one fsynced line, so the
headline number is *relative overhead* — an instrumented-and-ledgered
pipeline must stay within 5% of the instrumented pipeline alone.  The
micro benches isolate the pieces (record assembly, the append, the
sentinel's read-compare path).
"""

import pytest

from repro.obs import ObsContext
from repro.obs.ledger import RunLedger, build_run_record
from repro.obs.sentinel import regress
from repro.pipeline import RunConfig, run_pipeline
from repro.synth import WorldConfig, build_world


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(seed=7, scale=1.0, include_timeline=False))


def test_pipeline_observed(benchmark, world):
    """Baseline: spans + metrics on, no ledger (bench_obs's observed run)."""

    def run():
        return run_pipeline(RunConfig(obs=ObsContext(seed=7)), world=world)

    res = benchmark(run)
    benchmark.extra_info["researchers"] = res.dataset.researchers.num_rows


def test_pipeline_ledgered(benchmark, world, tmp_path_factory):
    """Observed run + record assembly + ledger append (<5% over observed)."""
    ledger = RunLedger(tmp_path_factory.mktemp("ledger"))

    def run():
        obs = ObsContext(seed=7)
        res = run_pipeline(RunConfig(obs=obs), world=world)
        record = build_run_record(res, command="bench")
        return ledger.append(record, events=obs.events)

    rec = benchmark(run)
    benchmark.extra_info["scientific_cells"] = len(rec.scientific)
    benchmark.extra_info["overhead_target_pct"] = 5.0


def test_build_run_record(benchmark, result):
    """Record assembly alone: the three headline analyses + digesting."""
    rec = benchmark(build_run_record, result)
    assert rec.digest


def test_ledger_append_and_read(benchmark, result, tmp_path_factory):
    """Appending to — then re-reading — a 20-run ledger."""
    record = build_run_record(result)

    def run():
        ledger = RunLedger(tmp_path_factory.mktemp("ledger"))
        for _ in range(20):
            ledger.append(record)
        return ledger.records()

    records = benchmark(run)
    assert len(records) == 20


def test_sentinel_regress(benchmark, result, tmp_path_factory):
    """The sentinel verdict over a 20-run same-config history."""
    ledger = RunLedger(tmp_path_factory.mktemp("ledger"))
    record = build_run_record(result)
    for _ in range(20):
        ledger.append(record)
    history = ledger.records()

    report = benchmark(regress, history)
    assert report.ok
