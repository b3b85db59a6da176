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
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

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
    """A :class:`PipelineResult` field read from its run on first access.

    A run that did not execute a field's artifacts leaves them in the
    cache; the first access to the field reads them through the run's
    own engine state (:meth:`~repro.engine.executor.EngineRun.reader`),
    so an evicted or damaged entry is recomputed and its cache entry
    healed, and the read stays out of the run's observability context:
    it belongs to the caller, not to the run's accounting.  One read may
    fill several fields (the result bundle is read as one); a field
    assigned before that read keeps the assigned value.  A result built
    without a reader (a sharded run, or a hand-built one) reads
    ``empty()``; a ``required`` field has no default at all.
    """

    def __init__(self, empty=lambda: None, required: bool = False) -> None:
        self.empty, self.required = empty, required

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            if self.required:  # the dataclass then sees no default
                raise AttributeError(self.name)
            return _UNREAD  # the dataclass default
        slots = result.__dict__
        if slots[self.name] is _UNREAD:
            run = slots.get("_run")
            if run is None or run.read is None:
                slots[self.name] = self.empty()
            else:
                for name, value in run.read(self.name).items():
                    run.own[name] = value
                    if slots[name] is _UNREAD:
                        slots[name] = value
        return slots[self.name]

    def __set__(self, result, value) -> None:
        result.__dict__[self.name] = value


@dataclass
class _RunLink:
    """What a result keeps of its run, outside its dataclass fields.

    ``read(field)`` returns the values of the fields one read fills
    (``read`` is ``None`` on a sharded run, which holds every field it
    has); ``own`` maps each field held
    or read so far to the run's own object; ``digests`` and ``engine``
    are the engine seeds' digests and cache (see
    :meth:`PipelineResult.engine_seeds`).
    """

    read: Callable[[str], dict[str, Any]] | None
    own: dict[str, Any]
    digests: dict[str, str]
    engine: EngineConfig | None


@dataclass
class PipelineResult:
    """Everything a caller might want from a run, monolithic or sharded.

    ``world``, ``linked`` and ``inference`` are ``None`` on a sharded
    run, which keeps no whole world; ``plan`` is its shard plan.
    ``timeline`` holds the world's SC/ISC 2016–2020 timeline (empty on
    a sharded run, whose shards build none).  ``stages`` maps each stage
    to its wall time: an engine node's on a monolithic run, the ``plan``
    and ``execute`` phases on a sharded one.
    ``executed_nodes``/``cached_nodes`` name the engine nodes that ran
    and that were served from the cache.

    A monolithic run holds only the fields whose artifacts it executed
    (or, with an observability context, read for its gauges).  The
    others are read on first access: the result bundle — ``dataset``,
    ``timeline``, ``coverage``/``inference``, ``degraded`` and
    ``contracts`` — in one read, ``world`` and ``linked`` each on their
    own, all through the run's own engine state and outside its
    accounting.  A warm run that only feeds cached experiments
    (:meth:`engine_seeds`) reads none of them.
    """

    dataset: AnalysisDataset = _ReadOnAccess(required=True)
    coverage: dict[str, float] = _ReadOnAccess(required=True)
    world_config: WorldConfig
    stages: dict[str, StageTime]
    degraded: DegradedCoverage | None = _ReadOnAccess()
    contracts: ContractReport | None = _ReadOnAccess()
    obs: ObsContext | None = None
    executed_nodes: tuple[str, ...] = ()
    cached_nodes: tuple[str, ...] = ()
    world: SyntheticWorld | None = _ReadOnAccess()
    linked: LinkedData | None = _ReadOnAccess()
    inference: InferenceOutcome | None = _ReadOnAccess()
    plan: ShardPlan | None = None
    timeline: list[TimelineEdition] = _ReadOnAccess(empty=list)

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
        are the run's own, which this decides without reading them.  A
        field not read yet is a :class:`~repro.engine.executor.DeferredSeed`,
        read only if the node executes.  A reassigned field, a result
        made by :func:`dataclasses.replace` or a hand-built one gets
        ``None`` for both, so such a node computes and stores nothing.
        """
        run = self.__dict__.get("_run")
        if run is not None:
            from repro.engine import DeferredSeed

            seeds: dict[str, object] = {}
            for name in ("dataset", "timeline"):
                value = self.__dict__[name]
                if value is _UNREAD:
                    seeds[name] = DeferredSeed(partial(getattr, self, name))
                elif value is run.own.get(name, _UNREAD):
                    seeds[name] = value
                else:
                    break
            else:
                return seeds, run.digests, run.engine
        return {"dataset": self.dataset, "timeline": self.timeline}, None, None


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
            run, fields, read, digests = _execute_sharded(rc, plan, stages)
        else:
            run, fields, read, digests = _execute_monolithic(
                rc, world, stages, gauges=octx.enabled
            )
        result = PipelineResult(
            **fields,
            stages=stages,
            obs=octx if octx.enabled else None,
            executed_nodes=tuple(
                r.node for r in run.results if not r.cache_hit and r.status == "ok"
            ),
            cached_nodes=tuple(r.node for r in run.results if r.cache_hit),
        )
        cache = rc.engine and rc.engine.cache_dir
        result._run = _RunLink(
            read=read,
            own={k: v for k, v in fields.items() if v is not _UNREAD},
            digests=digests,
            engine=EngineConfig(cache_dir=cache, refresh=rc.engine.refresh) if cache else None,
        )
        if octx.enabled:
            m = octx.metrics
            m.set_gauge("pipeline.researchers", result.researchers)
            m.set_gauge("pipeline.papers", result.dataset.papers.num_rows)
            if sharded:
                m.set_gauge("pipeline.shards", len(result.plan))
            else:  # a dataset has one conferences row per harvested edition
                m.set_gauge("pipeline.editions", result.dataset.conferences.num_rows)
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

# Each path returns (engine run, its result fields, the reader of the
# fields left unread, the digests of its dataset and timeline).  The
# engine is imported lazily: repro.engine.stages imports the stage
# modules of this package, so a top-level import would be circular.

#: the result bundle: the artifacts a monolithic result's bundle fields
#: come from (``timeline`` too, unless the world was prebuilt)
_BUNDLE = ("dataset", "inference", "degraded", "contracts")


def _execute_monolithic(
    rc: RunConfig, world: SyntheticWorld | None, stages: dict[str, StageTime], gauges: bool
):
    """The stage graph, reading its result bundle only if ``gauges`` need it."""
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
    bundle = _BUNDLE + (() if seeds else ("timeline",))
    run = run_dag(
        build_graph(params, prebuilt_world=world is not None),
        params,
        seeds=seeds,
        seed_digests={name: world_fingerprint(w) for name, w in seeds.items()},
        engine=rc.engine,
        stages=stages,
        want=bundle if gauges else (),
    )
    _require(run, *bundle)
    # artifacts this run holds (executed, or the prebuilt world) are
    # served from memory; the others are read through the engine
    reader = run.reader(keep=bundle + ("world", "linked"))
    accounting = _engine_accounting(run)

    def bundle_fields(art) -> dict[str, Any]:
        return dict(
            dataset=art["dataset"],
            coverage=art["inference"].coverage,
            degraded=_fold_accounting(art["degraded"], accounting),
            contracts=art["contracts"],
            inference=art["inference"],
            timeline=world.timeline if world is not None else art["timeline"],
        )

    def read(name: str) -> dict[str, Any]:
        if name in ("world", "linked"):
            return reader((name,))
        return bundle_fields(reader(bundle))

    held = all(a in run.artifacts for a in bundle)
    fields = bundle_fields(run.artifacts) if held else dict.fromkeys(
        ("dataset", "coverage", "degraded", "contracts", "inference", "timeline"), _UNREAD
    )
    fields.update(
        world_config=world.config if world is not None else rc.world or WorldConfig(),
        world=_UNREAD,
        linked=_UNREAD,
    )
    digests = {
        "dataset": run.digests["dataset"],
        # a prebuilt world's timeline is addressed through the world's digest
        "timeline": run.digests.get("timeline")
        or fingerprint("artifact", run.digests["world"], "timeline"),
    }
    return run, fields, read, digests


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
        degraded=_fold_accounting(merged.degraded, _engine_accounting(run)),
        plan=plan,
        timeline=[],
    )
    # the merge holds the dataset; a sharded run's timeline is always empty
    digests = {"dataset": run.digests["merged"], "timeline": fingerprint("timeline", [])}
    return run, fields, None, digests


@contextmanager
def _phase(stages: dict[str, StageTime], name: str):
    t0 = time.perf_counter()
    with _obs_current().span(name):
        yield
    stages[name] = StageTime(seconds=time.perf_counter() - t0, count=1)


def _require(run, *artifacts: str) -> None:
    """Failure isolation kept the DAG alive, but a result needs these artifacts."""
    from repro.engine import IncompleteRunError

    missing = [a for a in artifacts if a in run.lost or a not in run.digests]
    if missing:
        raise IncompleteRunError(run.failed, run.skipped, missing=missing)


def _engine_accounting(run) -> dict[str, Any] | None:
    """``EngineRun.failed/skipped/retries`` as the run left them, or ``None``.

    A clean supervised (or unsupervised) run has nothing to fold.
    """
    if run.completed and run.retries == 0:
        return None
    return dict(
        failed_nodes=tuple(sorted(run.failed)),
        skipped_nodes=tuple(sorted(run.skipped)),
        node_retries=run.retries,
        virtual_time=run.virtual_time,
    )


def _fold_accounting(degraded, accounting) -> DegradedCoverage | None:
    """Fold the engine's accounting into the coverage report."""
    if accounting is None:
        return degraded
    base = degraded if degraded is not None else DegradedCoverage()
    return replace(
        base, **{**accounting, "virtual_time": base.virtual_time + accounting["virtual_time"]}
    )
