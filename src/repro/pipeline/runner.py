"""End-to-end pipeline driver.

:func:`run_pipeline` runs the stage sequence of
:mod:`repro.engine.stages` on the stage-DAG engine — always: with
``RunConfig.engine=None`` the engine runs in memory, uncached and
serially.  Beyond the happy path, a run owns the pipeline's resilience
contract:

- pass a :class:`~repro.faults.plan.FaultConfig` and every simulated
  service call (harvest fetches, genderize, Google Scholar, Semantic
  Scholar) runs under the deterministic fault plan — retried with
  virtual-clock backoff, circuit-broken, and, when lost for good,
  recorded in :attr:`PipelineResult.degraded` rather than raised;
- pass ``engine=EngineConfig(cache_dir=...)`` and every node's outputs
  land in the artifact cache as that node finishes, so rerunning a
  killed run against the same directory re-executes only the nodes
  that had not finished;
- pass ``validation`` and every stage hand-off runs under the data
  contracts of :mod:`repro.contracts`: violating records are repaired
  or quarantined (``"repair"``), merely recorded (``"audit"``), or
  fail the run fast (``"strict"``), and an end-of-run integrity audit
  checks that counts are conserved — the result lands in
  :attr:`PipelineResult.contracts`.

With ``FaultConfig(rate=0.0)`` the resilience plumbing is live but
injects nothing, and the output is bit-identical to the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.contracts.audit import ContractReport
from repro.faults.degradation import DegradedCoverage
from repro.obs.context import NULL as _NULL_OBS
from repro.obs.context import ObsContext
from repro.obs.context import use as _obs_use
from repro.pipeline.config import RunConfig
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.infer import InferenceOutcome
from repro.pipeline.link import LinkedData
from repro.synth.world import SyntheticWorld
from repro.util.timing import StageTimer

__all__ = ["PipelineResult", "run_pipeline", "RunConfig"]


@dataclass
class PipelineResult:
    """Everything a caller might want from a full run."""

    world: SyntheticWorld
    linked: LinkedData
    dataset: AnalysisDataset
    inference: InferenceOutcome
    timer: StageTimer = field(default_factory=StageTimer)
    degraded: DegradedCoverage | None = None
    contracts: ContractReport | None = None
    obs: ObsContext | None = None

    @property
    def coverage(self) -> dict[str, float]:
        return self.inference.coverage


def run_pipeline(
    config: RunConfig | None = None,
    world: SyntheticWorld | None = None,
) -> PipelineResult:
    """Build (or reuse) a world and run every pipeline stage.

    ::

        run_pipeline(RunConfig(world=WorldConfig(seed=7), validation="repair"))

    optionally with a prebuilt ``world`` (a world is data, not
    configuration, so it stays a separate argument; ``config.world`` is
    then ignored).  The run executes on the stage-DAG engine
    (:mod:`repro.engine`): with ``config.engine.workers`` independent
    stages run concurrently and, with ``config.engine.cache_dir``, every
    stage whose content-addressed fingerprint hits the artifact cache is
    served without re-executing its body.

    Strict validation raises
    :class:`~repro.contracts.schema.ContractViolationError` at the first
    violating record (or failing audit check).  With an observability
    context on ``config.obs`` every stage runs under a trace span, the
    faults / contracts / tabular layers feed its metrics registry, and
    (if the context was built with ``profile=True``) each stage is
    profiled under cProfile.
    """
    rc = RunConfig() if config is None else config
    if not isinstance(rc, RunConfig):
        raise TypeError(f"config must be a RunConfig, not {type(rc).__name__}")
    if rc.shards is not None:
        raise ValueError(
            "RunConfig.shards selects the sharded pipeline; "
            "call repro.pipeline.sharded.run_sharded (repro.api.run_sharded)"
        )
    octx = rc.obs if rc.obs is not None else _NULL_OBS
    with _obs_use(rc.obs):
        octx.event(
            "run.start",
            "pipeline",
            engine=rc.engine is not None,
            prebuilt_world=world is not None,
        )
        result = _run_engine(octx, rc, world)
        octx.event("run.end", "pipeline", engine=rc.engine is not None)
        return result


def _run_engine(octx, rc: RunConfig, world: SyntheticWorld | None) -> PipelineResult:
    """Execute the run on the stage-DAG engine (:mod:`repro.engine`)."""
    # imported lazily: repro.engine.stages imports the stage modules of
    # this package, so a top-level import here would be circular
    from repro.engine import (
        IncompleteRunError,
        PipelineParams,
        build_graph,
        run_dag,
        world_fingerprint,
    )

    timer = StageTimer(tracer=octx.tracer if octx.enabled else None)
    params = PipelineParams(
        world_config=rc.world,
        policy=rc.policy,
        faults=rc.faults,
        validation=rc.validation_mode(),
        parallel=rc.parallel,
    )
    graph = build_graph(params, prebuilt_world=world is not None)
    seeds: dict = {}
    seed_digests: dict[str, str] = {}
    if world is not None:
        seeds["world"] = world
        seed_digests["world"] = world_fingerprint(world)
    run = run_dag(
        graph,
        params,
        seeds=seeds,
        seed_digests=seed_digests,
        engine=rc.engine,
        timer=timer,
    )

    # failure isolation kept the DAG alive, but a PipelineResult cannot
    # exist without these artifacts — surface the accounting instead of
    # a bare KeyError
    required = ("world", "linked", "dataset", "inference", "degraded", "contracts")
    missing = [a for a in required if a not in run.artifacts]
    if missing:
        raise IncompleteRunError(run.failed, run.skipped, missing=missing)

    dataset = run["dataset"]
    if octx.enabled:
        m = octx.metrics
        m.set_gauge("pipeline.researchers", dataset.researchers.num_rows)
        m.set_gauge("pipeline.papers", dataset.papers.num_rows)
        m.set_gauge("pipeline.editions", len(run["harvested"]))
        for name, secs in timer.durations.items():
            m.set_gauge(f"time.stage.{name}", secs)
    return PipelineResult(
        world=run["world"],
        linked=run["linked"],
        dataset=dataset,
        inference=run["inference"],
        timer=timer,
        degraded=_merge_engine_accounting(run["degraded"], run),
        contracts=run["contracts"],
        obs=octx if octx.enabled else None,
    )


def _merge_engine_accounting(degraded, run) -> DegradedCoverage | None:
    """Fold ``EngineRun.failed/skipped/retries`` into the coverage report.

    A clean supervised (or unsupervised) run returns ``degraded``
    untouched.
    """
    if run.completed and run.retries == 0:
        return degraded
    base = degraded if degraded is not None else DegradedCoverage()
    return replace(
        base,
        failed_nodes=tuple(sorted(run.failed)),
        skipped_nodes=tuple(sorted(run.skipped)),
        node_retries=run.retries,
        virtual_time=base.virtual_time + run.virtual_time,
    )
