"""Ingest: generate each conference's site and scrape it back.

One task per conference edition — the natural decomposition for the
deterministic parallel map (results are ordered by the edition list, and
site generation is a pure function of the registry, so worker count
cannot change the output).

Two entry points:

- :func:`ingest_world` — the fault-free fast path, unchanged semantics.
- :func:`ingest_world_resilient` — the same harvest under a
  :class:`~repro.faults.plan.FaultConfig`: injected fetch failures are
  retried (virtual-clock backoff), malformed pages are scraped as-is,
  an edition that exhausts its retries is *dropped and recorded* in the
  returned :class:`IngestReport` instead of aborting the run.

Every harvest task owns its own :class:`~repro.faults.session.FaultSession`,
so breaker state and virtual time are per-item and the report is
bit-identical across worker counts.  Tasks run under
``parallel_map(..., capture_errors=True)``: even a genuine bug in one
edition's scrape surfaces as a loss record, not a dead pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.corrupt import corrupt_edition
from repro.faults.degradation import FaultStats, LossRecord
from repro.faults.errors import FaultError
from repro.faults.plan import FaultConfig
from repro.faults.session import FaultSession
from repro.harvest.proceedings import build_proceedings
from repro.harvest.scrape import HarvestedConference, scrape_site
from repro.harvest.sitegen import generate_site
from repro.obs.context import current as _obs
from repro.synth.world import SyntheticWorld
from repro.util.parallel import ParallelConfig, TaskError, parallel_map

__all__ = [
    "ingest_world",
    "ingest_world_resilient",
    "harvest_one",
    "HarvestOutcome",
    "IngestReport",
]

def harvest_one(args: tuple[SyntheticWorld, str, int]) -> HarvestedConference:
    """Generate + scrape one conference edition (module-level: picklable)."""
    world, conference, year = args
    ctx = _obs()
    with ctx.span("harvest.edition", conf=conference, year=year):
        site = generate_site(world.registry, conference, year)
        proceedings = build_proceedings(world.registry, conference, year)
        conf = scrape_site(site, proceedings)
    ctx.metrics.inc("harvest.editions")
    ctx.metrics.observe("harvest.papers_per_edition", len(conf.papers))
    return conf


def _editions_of(world: SyntheticWorld, year: int):
    return sorted(
        (e for e in world.registry.editions.values() if e.year == year),
        key=lambda e: e.date,
    )


def ingest_world(
    world: SyntheticWorld,
    year: int = 2017,
    parallel: ParallelConfig | None = None,
) -> list[HarvestedConference]:
    """Scrape every conference edition of ``year`` (fault-free path)."""
    editions = _editions_of(world, year)
    tasks = [(world, e.name, e.year) for e in editions]
    return parallel_map(harvest_one, tasks, parallel)


# ----------------------------------------------------------- resilient path


@dataclass
class HarvestOutcome:
    """One task's result: a conference, or its documented absence."""

    key: str
    conference: HarvestedConference | None
    losses: tuple[LossRecord, ...]
    stats: FaultStats
    proceedings_count: int = 0


@dataclass
class IngestReport:
    """Everything the runner needs to account for the harvest stage."""

    conferences: list[HarvestedConference] = field(default_factory=list)
    losses: list[LossRecord] = field(default_factory=list)
    stats: FaultStats = field(default_factory=FaultStats)
    total_editions: int = 0
    # per-edition proceedings record counts — the harvest-side paper
    # denominator the integrity audit cross-checks the tables against
    proceedings_counts: dict[str, int] = field(default_factory=dict)


def _harvest_resilient(
    args: tuple[SyntheticWorld, str, int, FaultConfig | None],
) -> HarvestOutcome:
    """Harvest one edition under the fault plan (module-level: picklable)."""
    world, conference, year, faults = args
    key = f"{conference}-{year}"
    session = FaultSession(faults)
    ctx = _obs()

    def fetch():
        site = generate_site(world.registry, conference, year)
        proceedings = build_proceedings(world.registry, conference, year)
        return site, proceedings

    applied_tags: list[str] = []

    def malform(payload, rng):
        site, proceedings = payload
        site, proceedings, tags = corrupt_edition(site, proceedings, rng)
        applied_tags.extend(tags)
        return site, proceedings

    with ctx.span("harvest.edition", conf=conference, year=year):
        try:
            site, proceedings = session.call(
                "harvest", (conference, year), fetch, malform=malform
            )
        except FaultError as exc:
            session.record_loss("harvest", key, exc.reason)
            ctx.annotate(lost=exc.reason)
            ctx.metrics.inc("harvest.editions_lost")
            return HarvestOutcome(key, None, tuple(session.losses), session.snapshot)
        for tag in applied_tags:
            session.record_loss("harvest", key, f"malformed:{tag}")
        conf = scrape_site(site, proceedings)
    ctx.metrics.inc("harvest.editions")
    ctx.metrics.observe("harvest.papers_per_edition", len(conf.papers))
    return HarvestOutcome(
        key,
        conf,
        tuple(session.losses),
        session.snapshot,
        proceedings_count=len(proceedings),
    )


def ingest_world_resilient(
    world: SyntheticWorld,
    year: int = 2017,
    parallel: ParallelConfig | None = None,
    faults: FaultConfig | None = None,
) -> IngestReport:
    """Scrape every edition of ``year`` under faults, never raising."""
    editions = _editions_of(world, year)
    report = IngestReport(total_editions=len(editions))
    tasks = [(world, e.name, e.year, faults) for e in editions]
    results = parallel_map(_harvest_resilient, tasks, parallel, capture_errors=True)
    for e, result in zip(editions, results):
        key = f"{e.name}-{e.year}"
        if isinstance(result, TaskError):
            # a genuine defect in this edition's harvest, not an
            # injected fault: degrade it like any other loss
            report.losses.append(
                LossRecord("harvest", key, f"task-error:{result.kind}: {result.message}")
            )
            continue
        report.losses.extend(result.losses)
        report.stats.merge(result.stats)
        if result.conference is not None:
            report.conferences.append(result.conference)
            report.proceedings_counts[key] = result.proceedings_count
    return report
