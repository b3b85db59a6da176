"""End-to-end pipeline driver: :func:`run_pipeline` starts every run.

It executes the stage sequence of :mod:`repro.engine.stages` — or, with
``RunConfig.shards`` or a shard plan, the sharded graph of
:mod:`repro.pipeline.sharded` — on the stage-DAG engine, always: with
``RunConfig.engine=None`` the engine runs in memory, uncached and
serially.  Both paths return a :class:`PipelineResult`.  Beyond the
happy path, a run owns the pipeline's resilience contract:

- pass a :class:`~repro.faults.plan.FaultConfig` and every simulated
  service call (harvest fetches, genderize, Google Scholar, Semantic
  Scholar) runs under the deterministic fault plan — retried with
  virtual-clock backoff, circuit-broken, and, when lost for good,
  recorded in :attr:`PipelineResult.degraded` rather than raised;
- pass ``engine=EngineConfig(cache_dir=...)`` and every node's outputs
  land in the artifact cache as that node finishes, so rerunning a
  killed run against the same directory re-executes only the nodes
  (or shards) that had not finished;
- pass ``validation`` and every stage hand-off runs under the data
  contracts of :mod:`repro.contracts`: violating records are repaired
  or quarantined (``"repair"``), merely recorded (``"audit"``), or
  fail the run fast (``"strict"``), and an end-of-run integrity audit
  checks that counts are conserved — the result lands in
  :attr:`PipelineResult.contracts`.  Sharded runs skip the contracts
  and refuse ``"strict"``.

With ``FaultConfig(rate=0.0)`` the resilience plumbing is live but
injects nothing, and the output is bit-identical to the fault-free run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.contracts.audit import ContractReport
from repro.contracts.schema import ValidationMode
from repro.engine.node import StageTime
from repro.faults.degradation import DegradedCoverage
from repro.obs.context import NULL as _NULL_OBS
from repro.obs.context import ObsContext
from repro.obs.context import current as _obs_current
from repro.obs.context import use as _obs_use
from repro.pipeline.config import EngineConfig, RunConfig
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.infer import InferenceOutcome
from repro.pipeline.link import LinkedData
from repro.pipeline.sharded import plan_sharded_run
from repro.synth.config import WorldConfig
from repro.synth.shards import ShardPlan
from repro.synth.timeline import TimelineEdition
from repro.synth.world import SyntheticWorld

__all__ = [
    "PipelineResult",
    "RunConfig",
    "UnsupportedRunError",
    "run_pipeline",
    "run_sharded",
]


_UNREAD = object()


class _ReadOnAccess:
    """A :class:`PipelineResult` field read from the run on first access.

    A warm run does not unpickle the world or the linked records; the
    first access reads the one artifact through the run's own engine
    call (``run_dag`` with ``want`` set to it), so an evicted or damaged
    entry is recomputed and its cache entry healed.  The read is kept
    out of the run's observability context: it belongs to the caller,
    not to the run's accounting.  A result built without a reader (a
    sharded run, or a hand-built one) reads ``None``.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return _UNREAD  # the dataclass default
        value = result.__dict__[self.name]
        if value is _UNREAD:
            read = result.__dict__.get("_read")
            value = read(self.name) if read is not None else None
            result.__dict__[self.name] = value
        return value

    def __set__(self, result, value) -> None:
        result.__dict__[self.name] = value


@dataclass
class PipelineResult:
    """Everything a caller might want from a run, monolithic or sharded.

    ``world``, ``linked`` and ``inference`` are ``None`` on a sharded
    run, which keeps no whole world; ``plan`` is its shard plan.
    ``world`` and ``linked`` are read from the cache on first access
    when the run was served from it.  ``timeline`` holds the world's
    SC/ISC 2016–2020 timeline (empty on a sharded run, whose shards
    build none).  ``stages`` maps each stage to its wall time: an engine
    node's on a monolithic run, the ``plan`` and ``execute`` phases on a
    sharded one.  ``executed_nodes``/``cached_nodes`` name the engine
    nodes that ran and that were served from the cache.
    """

    dataset: AnalysisDataset
    coverage: dict[str, float]
    world_config: WorldConfig
    stages: dict[str, StageTime]
    degraded: DegradedCoverage | None = None
    contracts: ContractReport | None = None
    obs: ObsContext | None = None
    executed_nodes: tuple[str, ...] = ()
    cached_nodes: tuple[str, ...] = ()
    world: SyntheticWorld | None = _ReadOnAccess()
    linked: LinkedData | None = _ReadOnAccess()
    inference: InferenceOutcome | None = None
    plan: ShardPlan | None = None
    timeline: list[TimelineEdition] = field(default_factory=list)

    @property
    def researchers(self) -> int:
        """Unique researchers in the dataset."""
        return self.dataset.researchers.num_rows

    @property
    def executed_shards(self) -> int:
        return sum(1 for n in self.executed_nodes if n.startswith("shard:"))

    @property
    def shard_cache_hits(self) -> int:
        return sum(1 for n in self.cached_nodes if n.startswith("shard:"))

    @property
    def merge_cache_hit(self) -> bool:
        return "merge" in self.cached_nodes

    def engine_seeds(
        self,
    ) -> tuple[dict[str, object], dict[str, str] | None, EngineConfig | None]:
        """``dataset`` and ``timeline`` as engine seeds, with digests and cache.

        Returns ``(seeds, seed_digests, engine)`` for a node fed this
        result (the experiment nodes of :mod:`repro.report.experiments`).
        The digests are the engine's content addresses of the run's own
        dataset and timeline, and ``engine`` carries the run's cache
        directory; both count only while ``dataset`` and ``timeline``
        are the objects the run produced.  A reassigned field, a result
        made by :func:`dataclasses.replace` or a hand-built one gets
        ``None`` for both, so such a node computes and stores nothing.
        """
        seeds = {"dataset": self.dataset, "timeline": self.timeline}
        dataset, timeline, digests, engine = self.__dict__.get("_own", (None,) * 4)
        if dataset is not self.dataset or timeline is not self.timeline:
            return seeds, None, None
        return seeds, digests, engine


class UnsupportedRunError(ValueError):
    """A run configuration the pipeline cannot execute yet."""


def run_pipeline(
    config: RunConfig | None = None,
    world: SyntheticWorld | None = None,
    plan: ShardPlan | None = None,
    *,
    stages: dict[str, StageTime] | None = None,
) -> PipelineResult:
    """Run every pipeline stage, monolithic or sharded, on the engine.

    ::

        run_pipeline(RunConfig(world=WorldConfig(seed=7), validation="repair"))

    optionally with a prebuilt ``world`` (a world is data, not
    configuration, so it stays a separate argument; ``config.world`` is
    then ignored).  ``config.shards``, or a shard ``plan`` (e.g. one
    edition edited via :meth:`~repro.synth.shards.ShardPlan.with_target`,
    so only that shard and the merge re-execute against a warm cache),
    selects the sharded graph.  With ``config.engine.workers``
    (``config.shard_workers`` for shards) independent nodes run
    concurrently and, with ``config.engine.cache_dir``, every node whose
    content-addressed fingerprint hits the artifact cache is served
    without re-executing its body.  ``stages`` (a fresh mapping when
    omitted, and :attr:`PipelineResult.stages` either way) receives each
    stage's :class:`~repro.engine.node.StageTime` as it finishes, so a
    caller can watch a run.

    Strict validation raises
    :class:`~repro.contracts.schema.ContractViolationError` at the first
    violating record (or failing audit check); on a sharded run it
    raises :class:`UnsupportedRunError`.  With an observability context
    on ``config.obs`` every stage runs under a trace span, the faults /
    contracts / tabular layers feed its metrics registry, and (if the
    context was built with ``profile=True``) each stage is profiled
    under cProfile.
    """
    rc = RunConfig() if config is None else config
    if not isinstance(rc, RunConfig):
        raise TypeError(f"config must be a RunConfig, not {type(rc).__name__}")
    sharded = rc.shards is not None or plan is not None
    if sharded and rc.validation_mode() is ValidationMode.STRICT:
        raise UnsupportedRunError(
            "sharded runs do not support strict contract validation yet"
        )
    kind = "sharded" if sharded else "pipeline"
    octx = rc.obs if rc.obs is not None else _NULL_OBS
    with _obs_use(rc.obs):
        octx.event(
            "run.start",
            kind,
            engine=rc.engine is not None,
            prebuilt_world=world is not None,
            shards=rc.shards or 0,
        )
        stages = {} if stages is None else stages
        if sharded:
            run, fields, size, read, digests = _execute_sharded(rc, plan, stages)
        else:
            run, fields, size, read, digests = _execute_monolithic(rc, world, stages)
        fields["degraded"] = _merge_engine_accounting(fields["degraded"], run)
        result = PipelineResult(
            **fields,
            stages=stages,
            obs=octx if octx.enabled else None,
            executed_nodes=tuple(
                r.node for r in run.results if not r.cache_hit and r.status == "ok"
            ),
            cached_nodes=tuple(r.node for r in run.results if r.cache_hit),
        )
        result._read = read
        cache = rc.engine and rc.engine.cache_dir
        result._own = (
            result.dataset,
            result.timeline,
            digests,
            EngineConfig(cache_dir=cache, refresh=rc.engine.refresh) if cache else None,
        )
        if octx.enabled:
            m = octx.metrics
            m.set_gauge("pipeline.researchers", result.researchers)
            m.set_gauge("pipeline.papers", result.dataset.papers.num_rows)
            m.set_gauge(*size)
            for name, stage in stages.items():
                m.set_gauge(f"time.stage.{name}", stage.seconds)
        octx.event(
            "run.end",
            kind,
            executed=len(result.executed_nodes),
            cache_hits=len(result.cached_nodes),
        )
        return result


#: the sharded pipeline's former entry point: every caller sets
#: ``RunConfig.shards`` (or passes a plan), which selects the sharded graph
run_sharded = run_pipeline

# Each path returns (engine run, its result fields, its size gauge, the
# reader of the fields left unread, the digests of its dataset and
# timeline).  The engine is imported lazily:
# repro.engine.stages imports the stage modules of this package, so a
# top-level import would be circular.

#: what a monolithic result holds once the run returns; ``world`` and
#: ``linked`` are read when first accessed
_MONOLITHIC_WANTS = ("dataset", "inference", "degraded", "contracts")


def _execute_monolithic(
    rc: RunConfig, world: SyntheticWorld | None, stages: dict[str, StageTime]
):
    from repro.engine import (
        PipelineParams,
        build_graph,
        fingerprint,
        run_dag,
        world_fingerprint,
    )

    params = PipelineParams(
        world_config=rc.world,
        policy=rc.policy,
        faults=rc.faults,
        validation=rc.validation_mode(),
        parallel=rc.parallel,
    )
    seeds = {} if world is None else {"world": world}
    graph = build_graph(params, prebuilt_world=world is not None)
    seed_digests = {name: world_fingerprint(w) for name, w in seeds.items()}

    def execute(want, stages=None):
        run = run_dag(
            graph,
            params,
            seeds=seeds,
            seed_digests=seed_digests,
            engine=rc.engine,
            stages=stages,
            want=want,
        )
        _require(run, *want)
        return run

    run = execute(_MONOLITHIC_WANTS + (() if seeds else ("timeline",)), stages)
    # artifacts this run already holds (executed, or the prebuilt world)
    # are served from memory; the others are read through the engine
    held = {a: run[a] for a in ("world", "linked") if a in run.artifacts}

    def read(artifact: str):
        if artifact in held:
            return held[artifact]
        with _obs_use(None):
            return execute((artifact,))[artifact]

    fields = dict(
        dataset=run["dataset"],
        coverage=run["inference"].coverage,
        world_config=world.config if world is not None else rc.world or WorldConfig(),
        degraded=run["degraded"],
        contracts=run["contracts"],
        inference=run["inference"],
        timeline=world.timeline if world is not None else run["timeline"],
    )
    # a dataset has one conferences row per harvested edition
    size = ("pipeline.editions", run["dataset"].conferences.num_rows)
    digests = {
        "dataset": run.digests["dataset"],
        # a prebuilt world's timeline is addressed through the world's digest
        "timeline": run.digests.get("timeline")
        or fingerprint("artifact", run.digests["world"], "timeline"),
    }
    return run, fields, size, read, digests


def _execute_sharded(
    rc: RunConfig, plan: ShardPlan | None, stages: dict[str, StageTime]
):
    """Two stages, the planning and the whole execution, each under its span."""
    from repro.engine import fingerprint, run_dag

    with _phase(stages, "plan"):
        wc, plan, graph, params, engine = plan_sharded_run(rc, plan)
    with _phase(stages, "execute"):
        run = run_dag(graph, params, engine=engine, want=("merged",))
    _require(run, "merged")
    merged = run["merged"]
    fields = dict(
        dataset=merged.dataset,
        coverage=merged.coverage,
        world_config=wc,
        degraded=merged.degraded,
        plan=plan,
    )
    # the merge holds the dataset; a sharded run's timeline is always empty
    digests = {"dataset": run.digests["merged"], "timeline": fingerprint("timeline", [])}
    return run, fields, ("pipeline.shards", len(plan)), None, digests


@contextmanager
def _phase(stages: dict[str, StageTime], name: str):
    t0 = time.perf_counter()
    with _obs_current().span(name):
        yield
    stages[name] = StageTime(seconds=time.perf_counter() - t0, count=1)


def _require(run, *artifacts: str) -> None:
    """Failure isolation kept the DAG alive, but a result needs these artifacts."""
    from repro.engine import IncompleteRunError

    missing = [a for a in artifacts if a not in run.artifacts]
    if missing:
        raise IncompleteRunError(run.failed, run.skipped, missing=missing)


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
