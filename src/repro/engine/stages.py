"""The pipeline's stages declared as engine nodes.

Each function here is one :class:`~repro.engine.node.StageNode` body:
module-level (picklable, so independent nodes can run in
``parallel_map`` workers), taking the run's
:class:`PipelineParams` plus the named input artifacts, returning a
dict of named output artifacts.

These bodies are the pipeline's only definition of the stage sequence:
:func:`~repro.pipeline.runner.run_pipeline` runs them as DAG nodes, and
each shard node of :mod:`repro.pipeline.sharded` composes the same
bodies in-process over its one-edition world.  Two structural choices
shape them:

- **enrichment and gender inference are independent branches**: both
  consume the linked identities, neither consumes the other, so they
  share a scheduler generation and may run concurrently;
- **contract validation runs once per materialization**: each stage
  validates its own output as part of producing the artifact, so a
  cache hit serves already-validated data without re-validating, and
  the ``finalize`` node folds the per-stage contract sessions back into
  the single run-level report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.contracts.audit import ContractReport, run_integrity_audit
from repro.contracts.schema import (
    ContractViolationError,
    ValidationMode,
    Violation,
)
from repro.contracts.validators import (
    ContractSession,
    validate_assignments,
    validate_enrichment,
    validate_harvest,
    validate_linked,
)
from repro.engine.dag import StageGraph
from repro.engine.node import StageNode
from repro.faults.degradation import DegradedCoverage, FaultStats, LossRecord
from repro.faults.plan import FaultConfig
from repro.faults.session import FaultSession
from repro.gender.resolver import ResolverPolicy
from repro.harvest.webindex import build_name_keyed_evidence
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.enrich import enrich_researchers
from repro.pipeline.infer import infer_genders
from repro.pipeline.ingest import IngestReport, ingest_world_resilient
from repro.pipeline.link import link_identities
from repro.synth.config import WorldConfig
from repro.synth.world import build_world
from repro.util.parallel import ParallelConfig

__all__ = ["PipelineParams", "FaultPart", "build_graph"]


@dataclass(frozen=True)
class PipelineParams:
    """Everything a stage body may need; small, frozen, picklable.

    Only the *result-affecting* members (world config, policy, faults,
    validation) enter node fingerprints — execution policy (parallel)
    must never change a cache key.
    """

    world_config: WorldConfig | None = None
    policy: ResolverPolicy | None = None
    faults: FaultConfig | None = None
    validation: ValidationMode | None = None
    parallel: ParallelConfig | None = None

    def contract_session(self) -> ContractSession | None:
        if self.validation is None:
            return None
        return ContractSession(mode=self.validation)


@dataclass(frozen=True)
class FaultPart:
    """A stage's fault accounting, detached from its (stateful) session."""

    losses: tuple[LossRecord, ...] = ()
    stats: FaultStats = field(default_factory=FaultStats)

    @classmethod
    def of(cls, session: FaultSession | None) -> "FaultPart | None":
        if session is None:
            return None
        return cls(losses=tuple(session.losses), stats=session.snapshot)


# --------------------------------------------------------------- stage bodies


def stage_world(params: PipelineParams, inputs: dict) -> dict:
    # the SC/ISC timeline is its own output: a warm run reads it without
    # unpickling the whole world
    world = build_world(params.world_config)
    return {"world": world, "timeline": world.timeline}


def stage_ingest(params: PipelineParams, inputs: dict) -> dict:
    world = inputs["world"]
    # a world holds one edition year: 2017 for the paper's world, the
    # shard's own year for a shard world
    (year,) = {e.year for e in world.registry.editions.values()}
    report = ingest_world_resilient(
        world, year=year, parallel=params.parallel, faults=params.faults
    )
    harvested = report.conferences
    report = replace(report, conferences=[])  # stored once, as harvested
    session = params.contract_session()
    if session is not None:
        malformed = tuple(
            sorted(
                {
                    r.key
                    for r in report.losses
                    if r.stage == "harvest" and r.reason.startswith("malformed:")
                }
            )
        )
        harvested = validate_harvest(harvested, session, malformed)
    return {
        "harvested": harvested,
        "ingest_report": report,
        "contracts_ingest": session,
    }


def stage_link(params: PipelineParams, inputs: dict) -> dict:
    linked = link_identities(inputs["harvested"])
    session = params.contract_session()
    if session is not None:
        linked = validate_linked(linked, session)
    return {"linked": linked, "contracts_link": session}


def stage_enrich(params: PipelineParams, inputs: dict) -> dict:
    world, linked = inputs["world"], inputs["linked"]
    fault_session = FaultSession(params.faults) if params.faults is not None else None
    enrichment = enrich_researchers(
        linked, world.gs_store, world.s2_store, session=fault_session
    )
    session = params.contract_session()
    if session is not None:
        enrichment = validate_enrichment(enrichment, session)
    return {
        "enrichment": enrichment,
        "enrich_faults": FaultPart.of(fault_session),
        "contracts_enrich": session,
    }


def stage_infer(params: PipelineParams, inputs: dict) -> dict:
    world, linked = inputs["world"], inputs["linked"]
    fault_session = FaultSession(params.faults) if params.faults is not None else None
    name_evidence, name_truth = build_name_keyed_evidence(
        world.registry, world.evidence_availability, world.true_genders
    )
    inference = infer_genders(
        linked,
        name_evidence,
        name_truth,
        seed=world.seed,
        policy=params.policy,
        photo_error_rate=world.config.photo_error_rate,
        session=fault_session,
    )
    session = params.contract_session()
    if session is not None:
        assignments = validate_assignments(inference.assignments, session)
        if assignments != inference.assignments:
            inference = inference.with_assignments(assignments)
    return {
        "inference": inference,
        "infer_faults": FaultPart.of(fault_session),
        "contracts_infer": session,
    }


def stage_dataset(params: PipelineParams, inputs: dict) -> dict:
    dataset = AnalysisDataset.build(
        inputs["linked"], inputs["enrichment"], inputs["inference"].assignments
    )
    return {"dataset": dataset}


def _merge_sessions(
    mode: ValidationMode, parts: list[ContractSession | None]
) -> ContractSession:
    """Fold per-stage contract sessions into the run-level one.

    Stage order is fixed (ingest, link, enrich, infer), so the merged
    quarantine store lists entries in exactly the order one shared
    session would have appended them.
    """
    merged = ContractSession(mode=mode)
    for part in parts:
        if part is None:
            continue
        merged.store.entries.extend(part.store.entries)
        for entity, n in part.baselines.items():
            merged.baselines[entity] = merged.baselines.get(entity, 0) + n
        merged.papers_scraped.update(part.papers_scraped)
        if part.malformed_editions:
            merged.malformed_editions = tuple(part.malformed_editions)
    return merged


def fault_totals(*parts) -> tuple[list[LossRecord], FaultStats]:
    """Losses and counters folded in order over ``parts`` (``None`` skipped).

    A part is anything with ``.losses`` and ``.stats``: an ingest
    report, a stage's :class:`FaultPart`, a shard's result.
    """
    stats = FaultStats()
    losses: list[LossRecord] = []
    for part in parts:
        if part is not None:
            stats.merge(part.stats)
            losses.extend(part.losses)
    return losses, stats


def stage_finalize(params: PipelineParams, inputs: dict) -> dict:
    """Degraded-coverage assembly + the end-of-run integrity audit."""
    report: IngestReport = inputs["ingest_report"]
    degraded = None
    if params.faults is not None:
        losses, stats = fault_totals(
            report, inputs["enrich_faults"], inputs["infer_faults"]
        )
        degraded = DegradedCoverage.from_parts(
            total_editions=report.total_editions,
            harvested_editions=report.harvested_editions,
            losses=losses,
            stats=stats,
        )

    contracts = None
    mode = params.validation
    if mode is not None:
        session = _merge_sessions(
            mode,
            [
                inputs["contracts_ingest"],
                inputs["contracts_link"],
                inputs["contracts_enrich"],
                inputs["contracts_infer"],
            ],
        )
        audit = run_integrity_audit(
            inputs["dataset"],
            inputs["inference"],
            session,
            degraded=degraded,
            proceedings_counts=report.proceedings_counts,
            enrichment_rows=len(inputs["enrichment"]),
        )
        contracts = ContractReport(
            mode=mode.value, quarantine=session.store, audit=audit
        )
        if mode is ValidationMode.STRICT and not audit.ok:
            raise ContractViolationError(
                "audit",
                "run",
                "integrity",
                [
                    Violation(
                        contract="audit",
                        code=f"audit.{c.name}",
                        field=None,
                        message=f"expected {c.expected}, got {c.actual}",
                    )
                    for c in audit.failures
                ],
            )
    return {"degraded": degraded, "contracts": contracts}


# --------------------------------------------------------------- the graph


def build_graph(params: PipelineParams, prebuilt_world: bool = False) -> StageGraph:
    """Declare the pipeline DAG for one run.

    With a prebuilt world the ``world`` artifact is a seed injected by
    the caller; otherwise a ``world`` node builds it (and caches it —
    the single biggest warm-run win).
    """
    fp = StageNode.freeze_params
    graph = StageGraph(seed_artifacts=("world",) if prebuilt_world else ())
    if not prebuilt_world:
        graph.add(
            StageNode(
                "world",
                stage_world,
                inputs=(),
                outputs=("world", "timeline"),
                params=fp({"config": params.world_config}),
            )
        )
    graph.add(
        StageNode(
            "ingest",
            stage_ingest,
            inputs=("world",),
            outputs=("harvested", "ingest_report", "contracts_ingest"),
            params=fp({"faults": params.faults, "validation": params.validation}),
            # 2: the stored ingest_report holds harvested_editions, not the list;
            # 3: every run stores an ingest_report (fault-free ones held None)
            version="3",
        )
    )
    graph.add(
        StageNode(
            "link",
            stage_link,
            inputs=("harvested",),
            outputs=("linked", "contracts_link"),
            params=fp({"validation": params.validation}),
        )
    )
    graph.add(
        StageNode(
            "enrich",
            stage_enrich,
            inputs=("world", "linked"),
            outputs=("enrichment", "enrich_faults", "contracts_enrich"),
            params=fp({"faults": params.faults, "validation": params.validation}),
        )
    )
    graph.add(
        StageNode(
            "infer",
            stage_infer,
            inputs=("world", "linked"),
            outputs=("inference", "infer_faults", "contracts_infer"),
            params=fp(
                {
                    "policy": params.policy,
                    "faults": params.faults,
                    "validation": params.validation,
                }
            ),
        )
    )
    graph.add(
        StageNode(
            "dataset",
            stage_dataset,
            inputs=("linked", "enrichment", "inference"),
            outputs=("dataset",),
            params=fp({}),
        )
    )
    graph.add(
        StageNode(
            "finalize",
            stage_finalize,
            inputs=(
                "dataset",
                "inference",
                "enrichment",
                "ingest_report",
                "enrich_faults",
                "infer_faults",
                "contracts_ingest",
                "contracts_link",
                "contracts_enrich",
                "contracts_infer",
            ),
            outputs=("degraded", "contracts"),
            params=fp({"faults": params.faults, "validation": params.validation}),
        )
    )
    return graph
