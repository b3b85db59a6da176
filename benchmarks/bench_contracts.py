"""Benchmark CONTRACT: cost of the data-contract layer.

The contracts promise to be cheap enough to leave on by default
(``--validate=repair`` is the CLI default), so the headline number here
is *relative overhead*: a validated run must stay within a few percent
of the bare pipeline (< 5% is the target recorded in METHODOLOGY.md §9).
The per-entity benches isolate where the validation time actually goes.
"""

import pytest

from repro.contracts import (
    ASSIGNMENT_SCHEMA,
    EDITION_SCHEMA,
    PAPER_SCHEMA,
    ContractSession,
    ValidationMode,
    validate_harvest,
)
from repro.pipeline import RunConfig, run_pipeline
from repro.pipeline.ingest import ingest_world
from repro.synth import WorldConfig, build_world


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(seed=7, scale=1.0, include_timeline=False))


@pytest.fixture(scope="module")
def harvested(world):
    return ingest_world(world)


def test_pipeline_unvalidated(benchmark, world):
    """Baseline: the pipeline with contracts disabled."""
    res = benchmark(run_pipeline, world=world)
    benchmark.extra_info["researchers"] = res.dataset.researchers.num_rows


def test_pipeline_validate_repair(benchmark, world):
    """The default mode end-to-end; compare against the baseline bench."""
    res = benchmark(run_pipeline, RunConfig(validation="repair"), world=world)
    contracts_ms = 1e3 * res.timer.durations.get("contracts", 0.0)
    audit_ms = 1e3 * res.timer.durations.get("audit", 0.0)
    benchmark.extra_info["contracts_ms"] = round(contracts_ms, 2)
    benchmark.extra_info["audit_ms"] = round(audit_ms, 2)
    benchmark.extra_info["validation_overhead_pct"] = round(
        100.0 * contracts_ms / (1e3 * res.timer.total()), 2
    )
    assert res.contracts is not None and res.contracts.audit.ok


def test_pipeline_validate_audit(benchmark, world):
    """Audit mode: validation without any repair attempts."""
    res = benchmark(run_pipeline, RunConfig(validation="audit"), world=world)
    assert res.contracts is not None


def test_validate_harvest_stage(benchmark, harvested):
    """The heaviest single boundary: every edition, paper, and role."""

    def run():
        session = ContractSession(mode=ValidationMode.REPAIR)
        return validate_harvest(list(harvested), session)

    out = benchmark(run)
    benchmark.extra_info["editions"] = len(out)
    benchmark.extra_info["papers"] = sum(len(c.papers) for c in out)


def test_schema_validate_hot_records(benchmark, harvested):
    """Raw per-record schema cost over conforming records (the hot path)."""
    conf = harvested[0]
    papers = conf.papers[:50]

    def run():
        n = 0
        n += len(EDITION_SCHEMA.validate(conf))
        for p in papers:
            n += len(PAPER_SCHEMA.validate(p))
        return n

    violations = benchmark(run)
    assert violations == 0


def test_schema_validate_assignment(benchmark, world):
    """Assignment contract over a realistic assignment set."""
    res = run_pipeline(world=world)
    assignments = list(res.inference.assignments.values())

    def run():
        return sum(len(ASSIGNMENT_SCHEMA.validate(a)) for a in assignments)

    assert benchmark(run) == 0
