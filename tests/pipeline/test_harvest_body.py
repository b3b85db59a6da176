"""The one harvest body: fault-free and faulted runs ingest the same way.

Every run harvests through ``ingest_world_resilient`` and so carries an
``IngestReport`` with each edition's proceedings count; the integrity
audit checks the scraped papers against those counts on every validated
run, not only on faulted ones.  A genuine bug in one edition's scrape is
a ``task-error:`` loss under a fault plan and an exception without one.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.pipeline.ingest as ingest
from repro.engine.stages import PipelineParams, stage_ingest
from repro.faults import FaultConfig
from repro.faults.degradation import FaultStats
from repro.obs import ObsContext
from repro.pipeline import RunConfig, run_pipeline


def _edition_keys(world) -> set[str]:
    return {f"{e.name}-{e.year}" for e in world.registry.editions.values()}


@pytest.mark.contracts
class TestProceedingsCheck:
    def test_fault_free_report_counts_every_edition(self, small_world):
        out = stage_ingest(PipelineParams(), {"world": small_world})
        report = out["ingest_report"]
        assert set(report.proceedings_counts) == _edition_keys(small_world)
        assert report.total_editions == report.harvested_editions
        scraped = {f"{c.conference}-{c.year}": len(c.papers) for c in out["harvested"]}
        assert report.proceedings_counts == scraped
        # without a fault plan nothing is drawn, retried or counted
        assert report.losses == [] and report.stats == FaultStats()

    def test_fault_free_audit_catches_a_lost_paper(self, small_world, monkeypatch):
        real = ingest.scrape_site

        def drop_last_paper(site, proceedings):
            conf = real(site, proceedings)
            return replace(conf, papers=conf.papers[:-1])

        monkeypatch.setattr(ingest, "scrape_site", drop_last_paper)
        result = run_pipeline(RunConfig(validation="repair"), world=small_world)
        assert result.degraded is None
        check = {c.name: c for c in result.contracts.audit.checks}["conf-paper-counts"]
        assert not check.ok
        for key in _edition_keys(small_world):
            assert f"{key}: scraped " in check.actual
        assert "!= proceedings" in check.actual


def _raise_for(conference: str, monkeypatch) -> None:
    real = ingest.scrape_site

    def scrape(site, proceedings):
        conf = real(site, proceedings)
        if conf.conference == conference:
            raise RuntimeError(f"scraper bug on {conference}")
        return conf

    monkeypatch.setattr(ingest, "scrape_site", scrape)


@pytest.mark.faults
class TestTaskErrors:
    def test_faulted_run_records_a_crashed_edition(self, small_world, monkeypatch):
        edition = min(small_world.registry.editions.values(), key=lambda e: e.date)
        _raise_for(edition.name, monkeypatch)
        obs = ObsContext(seed=1)
        result = run_pipeline(
            RunConfig(faults=FaultConfig(rate=0.0), validation="repair", obs=obs),
            world=small_world,
        )
        key = f"{edition.name}-{edition.year}"
        (loss,) = [r for r in result.degraded.losses if r.key == key]
        assert loss.stage == "harvest"
        assert loss.reason == f"task-error:RuntimeError: scraper bug on {edition.name}"
        assert result.degraded.dropped_editions == (key,)
        assert result.contracts.audit.ok, result.contracts.audit.summary()
        # the crashed edition's session recorded the loss and kept its stats
        (event,) = [e for e in obs.events.by_type("fault.loss") if e.name == key]
        assert event.attrs["reason"] == loss.reason
        counters = obs.metrics.counters
        assert counters["faults.losses.harvest"] == 1
        calls = {
            name.removeprefix("faults.calls."): n
            for name, n in counters.items()
            if name.startswith("faults.calls.")
        }
        assert calls == result.degraded.service_calls

    def test_fault_free_run_raises(self, small_world, monkeypatch):
        edition = min(small_world.registry.editions.values(), key=lambda e: e.date)
        _raise_for(edition.name, monkeypatch)
        with pytest.raises(RuntimeError, match="scraper bug"):
            run_pipeline(world=small_world)
