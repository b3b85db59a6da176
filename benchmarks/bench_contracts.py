"""Benchmark CONTRACT: cost of the data-contract layer.

The contracts promise to be cheap enough to leave on by default
(``--validate=repair`` is the CLI default), so the headline number here
is *relative overhead*: a validated run must stay within a few percent
of the bare pipeline (< 5% is the target recorded in METHODOLOGY.md §9).
The per-entity benches isolate where the validation time actually goes.
"""

import time

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
    """The default mode end-to-end, and its overhead over the baseline.

    No stage is named after the contracts (they run inside the nodes),
    so the overhead is measured as it is felt: the best of three
    alternating repair and unvalidated runs of the same world.
    """
    res = benchmark(run_pipeline, RunConfig(validation="repair"), world=world)
    best = {"off": float("inf"), "repair": float("inf")}
    for _ in range(3):
        for mode in best:
            config = RunConfig(validation=None if mode == "off" else mode)
            t0 = time.perf_counter()
            run_pipeline(config, world=world)
            best[mode] = min(best[mode], time.perf_counter() - t0)
    contracts_ms = 1e3 * (best["repair"] - best["off"])
    benchmark.extra_info["unvalidated_ms"] = round(1e3 * best["off"], 2)
    benchmark.extra_info["repair_ms"] = round(1e3 * best["repair"], 2)
    benchmark.extra_info["contracts_ms"] = round(contracts_ms, 2)
    benchmark.extra_info["validation_overhead_pct"] = round(
        100.0 * contracts_ms / (1e3 * best["off"]), 2
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
