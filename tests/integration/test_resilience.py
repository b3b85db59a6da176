"""End-to-end resilience contract of the pipeline.

Three guarantees, asserted at pipeline level:

1. ``FaultConfig(rate=0.0)`` is bit-identical to the fault-free path —
   the resilience plumbing itself changes nothing;
2. a fixed fault seed produces an *equal* ``DegradedCoverage`` (and
   dataset) at any worker count;
3. no fault configuration — up to every call failing — can raise out of
   ``run_pipeline``; everything lost is accounted for.

``REPRO_FAULT_RATE`` (see ``make faults``) tunes the rate used by the
worker-invariance test so CI can sweep harsher regimes.
"""

import os

import pytest

from repro.faults import FaultConfig
from repro.pipeline import RunConfig, run_pipeline
from repro.util.parallel import ParallelConfig

ENV_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.25"))

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


@pytest.mark.faults
class TestRateZeroIdentity:
    def test_bit_identical_to_fault_free_run(self, small_world, small_result):
        resilient = run_pipeline(RunConfig(faults=FaultConfig(rate=0.0)), world=small_world)
        assert _datasets_equal(resilient.dataset, small_result.dataset)
        assert resilient.coverage == small_result.coverage
        dc = resilient.degraded
        assert dc is not None and not dc.is_degraded
        assert dc.harvested_editions == dc.total_editions
        assert dc.retries == 0 and dc.virtual_time == 0.0


@pytest.mark.faults
class TestWorkerInvariance:
    def test_degraded_coverage_identical_across_worker_counts(self, small_world):
        faults = FaultConfig(rate=ENV_RATE, seed=5)
        serial = run_pipeline(RunConfig(faults=faults), world=small_world)
        four = run_pipeline(
            RunConfig(
                faults=faults,
                parallel=ParallelConfig(workers=4, min_items_per_worker=1),
            ),
            world=small_world,
        )
        assert serial.degraded == four.degraded
        assert _datasets_equal(serial.dataset, four.dataset)
        assert serial.coverage == four.coverage

    def test_same_seed_reproduces_same_losses(self, small_world):
        faults = FaultConfig(rate=ENV_RATE, seed=5)
        a = run_pipeline(RunConfig(faults=faults), world=small_world)
        b = run_pipeline(RunConfig(faults=faults), world=small_world)
        assert a.degraded == b.degraded

    def test_different_fault_seed_differs(self, small_world):
        a = run_pipeline(RunConfig(faults=FaultConfig(rate=0.5, seed=5)), world=small_world)
        b = run_pipeline(RunConfig(faults=FaultConfig(rate=0.5, seed=6)), world=small_world)
        assert a.degraded != b.degraded


@pytest.mark.faults
class TestNothingEscapes:
    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_run_completes_under_heavy_faults(self, small_world, rate):
        result = run_pipeline(
            RunConfig(faults=FaultConfig(rate=rate, seed=3)), world=small_world
        )
        dc = result.degraded
        # every edition is either in the dataset or in the loss ledger
        assert dc.harvested_editions + len(dc.dropped_editions) == dc.total_editions
        if rate == 1.0:
            assert dc.is_degraded

    def test_total_loss_still_yields_a_result(self, small_world):
        # transient-only at rate 1: every harvest exhausts, nothing survives
        result = run_pipeline(
            RunConfig(faults=FaultConfig(rate=1.0, seed=3, weights=(1.0, 0.0, 0.0, 0.0))),
            world=small_world,
        )
        dc = result.degraded
        assert dc.harvested_editions == 0
        assert len(dc.dropped_editions) == dc.total_editions
        assert result.dataset.conferences.num_rows == 0

    def test_degradation_is_visible_in_the_report(self, small_world):
        from repro.report.textreport import full_report

        result = run_pipeline(
            RunConfig(faults=FaultConfig(rate=ENV_RATE, seed=5)), world=small_world
        )
        text = full_report(result)
        assert "Degraded coverage" in text
