"""Ingest: generate each conference's site and scrape it back.

One task per conference edition — the natural decomposition for the
deterministic parallel map (results are ordered by the edition list, and
site generation is a pure function of the registry, so worker count
cannot change the output).

:func:`ingest_world_resilient` is the one harvest body.  Every run
takes it and gets an :class:`IngestReport`, whose per-edition
proceedings counts the integrity audit checks the scraped papers
against.  With ``faults=None`` each edition's site and proceedings are
fetched directly: nothing is drawn, retried or counted.  Under a
:class:`~repro.faults.plan.FaultConfig` every harvest task owns its own
:class:`~repro.faults.session.FaultSession`: injected fetch failures
are retried (virtual-clock backoff), malformed pages are scraped as-is,
and an edition that exhausts its retries is *dropped and recorded*
instead of aborting the run.  Breaker state and virtual time are
per-item, so the report is bit-identical across worker counts.

Under a fault plan even a genuine bug in one edition's harvest is a
loss its session records (a ``task-error:`` reason, with the
``fault.loss`` event and the session's call counts), not a dead pool.
Without a fault plan there is no loss accounting, so such a bug raises.
:func:`ingest_world` is a thin name for the harvested list.
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
from repro.util.parallel import ParallelConfig, parallel_map

__all__ = [
    "ingest_world",
    "ingest_world_resilient",
    "HarvestOutcome",
    "IngestReport",
]


def _editions_of(world: SyntheticWorld, year: int):
    return sorted(
        (e for e in world.registry.editions.values() if e.year == year),
        key=lambda e: e.date,
    )


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
    """Everything the runner needs to account for the harvest stage.

    ``harvested_editions`` is ``len(conferences)``; the engine's ingest
    node stores the report without the list, which it emits as
    ``harvested``, so the count is what the stored report keeps.
    """

    conferences: list[HarvestedConference] = field(default_factory=list)
    losses: list[LossRecord] = field(default_factory=list)
    stats: FaultStats = field(default_factory=FaultStats)
    total_editions: int = 0
    harvested_editions: int = 0
    # per-edition proceedings record counts — the harvest-side paper
    # denominator the integrity audit cross-checks the tables against
    proceedings_counts: dict[str, int] = field(default_factory=dict)


def _harvest_edition(
    world: SyntheticWorld, args: tuple[str, int, FaultConfig | None]
) -> HarvestOutcome:
    """Harvest one edition, under the fault plan if any (module-level: picklable)."""
    conference, year, faults = args
    key = f"{conference}-{year}"
    session = FaultSession(faults) if faults is not None else None
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

    try:
        with ctx.span("harvest.edition", conf=conference, year=year):
            if session is None:
                site, proceedings = fetch()
            else:
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
    except Exception as exc:
        if session is None:
            raise
        # a genuine defect in this edition's harvest, not an injected
        # fault: degrade it like any other loss
        session.record_loss("harvest", key, f"task-error:{type(exc).__name__}: {exc}")
        return HarvestOutcome(key, None, tuple(session.losses), session.snapshot)
    ctx.metrics.inc("harvest.editions")
    ctx.metrics.observe("harvest.papers_per_edition", len(conf.papers))
    losses, stats = ((), FaultStats()) if session is None else (
        tuple(session.losses), session.snapshot
    )
    return HarvestOutcome(key, conf, losses, stats, proceedings_count=len(proceedings))


def ingest_world_resilient(
    world: SyntheticWorld,
    year: int = 2017,
    parallel: ParallelConfig | None = None,
    faults: FaultConfig | None = None,
) -> IngestReport:
    """Scrape every edition of ``year``; under faults, never raising."""
    editions = _editions_of(world, year)
    report = IngestReport(total_editions=len(editions))
    tasks = [(e.name, e.year, faults) for e in editions]
    # the world goes to each worker process once, not with every task
    for result in parallel_map(_harvest_edition, tasks, parallel, shared=world):
        report.losses.extend(result.losses)
        report.stats.merge(result.stats)
        if result.conference is not None:
            report.conferences.append(result.conference)
            report.harvested_editions += 1
            report.proceedings_counts[result.key] = result.proceedings_count
    return report


def ingest_world(
    world: SyntheticWorld,
    year: int = 2017,
    parallel: ParallelConfig | None = None,
) -> list[HarvestedConference]:
    """The conferences :func:`ingest_world_resilient` harvests without faults."""
    return ingest_world_resilient(world, year, parallel).conferences
