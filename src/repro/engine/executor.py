"""The engine: fingerprint, schedule, cache, execute.

``run_dag`` first derives every node's content-addressed key —
SHA-256 over the node's declared params, its code version, and the
keys of its upstream outputs (seed artifacts contribute their own
digests, e.g. the world fingerprint) — which needs no artifact at all.
It then walks the :class:`~repro.engine.dag.StageGraph` in topological
generations and either

- **serves the node from cache** (``engine.cache.hits``; the node body
  never runs, its span carries ``cache_hit=True``), unpickling only the
  outputs that are read: those the caller names in ``want`` and those
  a node that executes consumes — a node none of whose outputs are read
  is counted as a hit without being loaded (see :class:`_Execution`), or
- **executes it** (``engine.cache.misses``), concurrently with the rest
  of its generation when an :class:`EngineConfig` requests workers —
  ``min(workers, nodes)`` processes of the same deterministic
  ``parallel_map`` pool the ingest stage uses, so results are
  bit-identical across worker counts; a serial generation runs each
  node in the caller's observability context — and stores the outputs
  for the next run as soon as the node finishes (inside the worker, for
  pooled generations), so a run that dies part-way keeps every node it
  completed.

Execution policy (worker counts, directories, refresh) never enters a
key: a serial run and a parallel run address the same cache entries.

Every generation runs through one attempt loop under a
:class:`~repro.engine.supervise.Supervisor`.  With
``EngineConfig.supervise`` (or ``chaos``) set, node failures are
captured and retried with virtual-clock backoff, deadlines are
enforced, and a node that exhausts its attempts is recorded in
:attr:`EngineRun.failed` while only its downstream nodes are skipped —
independent branches of the DAG keep executing.  Without supervision
the loop makes one attempt with no chaos draws and no error capture, so
the historical contract holds exactly: any node exception propagates,
as itself, and aborts the run.
"""

from __future__ import annotations

import copy
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.engine.cache import ArtifactCache, CacheWriteError
from repro.engine.dag import StageGraph
from repro.engine.fingerprint import fingerprint
from repro.engine.node import NodeResult, StageNode, StageTime
from repro.engine.supervise import (
    IncompleteRunError,
    NodePolicy,
    Supervisor,
    SupervisorConfig,
)
from repro.faults.chaos import ChaosKind
from repro.obs.context import current as _obs
from repro.obs.context import use as _obs_use
from repro.pipeline.config import EngineConfig
from repro.util.parallel import (
    DEADLINE_ERROR,
    ParallelConfig,
    TaskError,
    _CaptureErrors,
    parallel_map,
)

__all__ = ["DeferredSeed", "EngineConfig", "EngineRun", "run_dag"]

#: the policy of an unsupervised run: one attempt (and no chaos plan)
_ONE_ATTEMPT = SupervisorConfig(default=NodePolicy(max_attempts=1))


class DeferredSeed:
    """A seed artifact whose value is produced only when a node reads it.

    ``read()`` returns the value.  A seed's digest keys its consumers, so
    :func:`run_dag` calls ``read`` only when a node that consumes the
    seed executes: a consumer served from the cache never produces it.
    """

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], Any]) -> None:
        self.read = read


@dataclass
class EngineRun:
    """Artifacts plus per-node accounting for one DAG execution.

    ``artifacts`` holds what the run produced or read: with ``want``,
    a cached node's unread outputs are absent (its ``results`` entry is
    still a hit).  ``failed`` maps exhausted nodes to their final error; ``skipped``
    maps nodes that never ran to the upstream artifacts that blocked
    them.  Both are empty on an unsupervised run (failures abort
    instead).  ``retries`` and ``virtual_time`` come from the
    supervisor's clock — deterministic for a given chaos/backoff seed.
    ``digests`` maps every artifact the run could address — seeds and
    the outputs of every keyed node — to its content digest; ``lost``
    names the outputs of its failed and skipped nodes.  :meth:`reader`
    reads the others after the run returned.
    """

    artifacts: dict[str, Any] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    results: list[NodeResult] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    lost: set[str] = field(default_factory=set)
    retries: int = 0
    virtual_time: float = 0.0
    #: the finished execution, without its reference to this run
    _state: "_Execution | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if not r.cache_hit and r.status == "ok")

    @property
    def completed(self) -> bool:
        """Did every node of the DAG produce its artifacts?"""
        return not self.failed and not self.skipped

    def __getitem__(self, artifact: str) -> Any:
        return self.artifacts[artifact]

    def reader(self, keep: Iterable[str] = ()) -> Callable[[Iterable[str]], dict[str, Any]]:
        """``read(artifacts)`` of this finished run, usable after it returned.

        The reader holds the ``keep`` artifacts this run has in memory
        and loads any other through the run's own engine state: its
        keys (none is computed again), its cache handle and its
        producers.  An entry found missing or damaged is quarantined by
        the cache, recomputed from inputs provided the same way, and
        stored again.  Reads run under no observability context and land
        in a scratch run, so this run's stages, results, metrics and
        events stay as they were.  ``read`` raises
        :class:`~repro.engine.supervise.IncompleteRunError` for an
        artifact that could not be provided.
        """
        scratch = EngineRun(
            artifacts={a: self.artifacts[a] for a in keep if a in self.artifacts},
            digests=self.digests,
            failed=dict(self.failed),
            skipped=dict(self.skipped),
            lost=set(self.lost),
        )
        post = copy.copy(self._state)
        post.run, post.lost = scratch, scratch.lost
        return post.read


def _node_task(task: tuple) -> tuple[dict[str, Any], float]:
    """Execute one node body and cache its outputs (picklable for workers).

    ``task`` is ``(node, params, inputs, cache, key, staged)``; ``cache``
    is ``None`` when the node's outputs are not to be stored, ``staged``
    opens the node's stage span around the whole task.  Returns the
    outputs and the seconds the body and the save took, measured in the
    process that ran them.
    """
    node, params, inputs, cache, key, staged = task
    t0 = time.perf_counter()
    ctx = _obs()
    with _stage_span(staged, node.name):
        ctx.event("stage.start", node.name)
        with ctx.span("engine.node", node=node.name, cache_hit=False):
            with ctx.profiled(node.name):
                outputs = node.fn(params, inputs)
        ctx.event("stage.end", node.name, cache_hit=False)
        missing = set(node.outputs) - set(outputs)
        if missing:
            raise RuntimeError(
                f"node {node.name!r} did not produce declared outputs: {sorted(missing)}"
            )
        if cache is not None:
            cache.save(node.name, key, outputs)
    return outputs, time.perf_counter() - t0


def _stage_span(staged: bool, name: str):
    """The span named after a node, opened when the run records stages."""
    return _obs().span(name) if staged else nullcontext()


def run_dag(
    graph: StageGraph,
    params: Any,
    seeds: dict[str, Any] | None = None,
    seed_digests: dict[str, str] | None = None,
    engine: EngineConfig | None = None,
    stages: dict[str, StageTime] | None = None,
    want: Iterable[str] | None = None,
) -> EngineRun:
    """Execute ``graph``, returning the artifacts it produced or loaded.

    ``seeds`` are caller-injected artifacts (a prebuilt world);
    ``seed_digests`` their content digests, folded into downstream keys.
    ``stages``, when given, is filled as nodes finish: each node's
    :class:`~repro.engine.node.StageTime` (its load, executions and
    attempts, timed where each ran), under the node's name, and each
    node runs under a span of that name.  Without it nodes get neither.

    ``want`` names the artifacts the caller reads (default: every
    artifact).  A cached node's outputs are unpickled only if they are
    wanted or consumed by a node that executes; the others stay on
    disk and are missing from :attr:`EngineRun.artifacts`, yet the node
    counts as a cache hit all the same.
    """
    cfg = engine or EngineConfig()
    cache = ArtifactCache(cfg.cache_dir) if cfg.cache_dir is not None else None
    supervised = cfg.supervise is not None or cfg.chaos is not None
    sup = Supervisor(
        (cfg.supervise or SupervisorConfig()) if supervised else _ONE_ATTEMPT,
        chaos=cfg.chaos,
    )
    run = EngineRun(artifacts=dict(seeds or {}), digests=dict(seed_digests or {}))
    digests = run.digests
    for name in run.artifacts:
        if name not in digests:
            digests[name] = fingerprint("seed", name)

    generations = graph.generations()
    execution = _Execution(
        graph, run, _node_keys(generations, digests), digests,
        params, cfg, cache, sup, supervised, stages, want,
    )
    for generation in generations:
        execution.generation(generation)
    execution.finish()
    run.retries = sup.retries
    run.virtual_time = sup.clock.now
    # kept for EngineRun.reader, without this run (no cycle keeps its
    # artifacts alive once its caller drops it) and without the caller's
    # stage map (a post-run read records no stage)
    execution.run, execution.stages = None, None
    run._state = execution
    return run


def _node_keys(generations: list[list[StageNode]], digests: dict[str, str]) -> dict[str, str]:
    """Every node's cache key, from its upstream keys alone — nothing is loaded.

    Fills ``digests`` with each output's digest: content-addressed by
    construction, the producing node's key already encodes everything
    upstream, so an artifact's digest is (key, output name) — no need to
    hash pickled bytes.  A node fed by an absent seed gets no key.
    """
    keys: dict[str, str] = {}
    for generation in generations:
        for node in generation:
            if any(a not in digests for a in node.inputs):
                continue
            key = fingerprint(
                "node",
                node.name,
                node.version,
                node.params,
                [(a, digests[a]) for a in node.inputs],
            )
            keys[node.name] = key
            for name in node.outputs:
                digests[name] = fingerprint("artifact", key, name)
    return keys


class _Execution:
    """One :func:`run_dag` call: which nodes execute, which load, which wait.

    A node *executes* when it is not cacheable, ``refresh`` is set or
    its entry is absent.  Any other node is served from the cache, and
    is unpickled only for its *needed* outputs: those wanted by the
    caller or consumed by an executing node.  A served node with no
    needed output is *deferred* — its stage entry is a cached one, its
    hit is counted when the run ends.  When a load fails
    (the cache quarantines the entry), the node executes after its
    missing inputs are provided: loaded on demand from their deferred
    producers, or executed in turn if those loads fail too.

    ``capture`` (a supervised run) turns a failed attempt into a
    :class:`~repro.util.parallel.TaskError` the attempt loop retries or
    records; without it the node's exception propagates.
    """

    def __init__(
        self, graph, run, keys, digests, params, cfg, cache, sup, capture, stages, want
    ) -> None:
        self.run, self.keys, self.digests = run, keys, digests
        self.params, self.cfg, self.cache = params, cfg, cache
        self.sup, self.capture, self.stages = sup, capture, stages
        self.producer = graph.producers()
        self.executes = {
            n.name
            for n in graph.nodes
            if cache is None
            or cfg.refresh
            or not n.cacheable
            or n.name not in keys
            or not cache.has(n.name, keys[n.name])
        }
        wanted = set(self.producer) if want is None else set(want)
        self.needed = wanted.union(
            *(n.inputs for n in graph.nodes if n.name in self.executes)
        )
        self.deferred: dict[str, StageNode] = {}
        self.lost = run.lost  # outputs of failed and skipped nodes

    # ----------------------------------------------------------- scheduling

    def generation(self, nodes: list[StageNode]) -> None:
        pending: list[StageNode] = []
        for node in nodes:
            blocked = self._blocked(node)
            if blocked:
                self._skip(node, blocked)
                continue
            if node.name not in self.executes:
                needed = [a for a in node.outputs if a in self.needed]
                if not needed:
                    self._defer(node)
                    continue
                if self._serve(node, needed):
                    continue
            self._miss(node)
            pending.append(node)
        self._execute(pending)

    def finish(self) -> None:
        """Count the deferred nodes, served without a read, as hits."""
        for node in self.deferred.values():
            self._hit(node, {})
        self.deferred.clear()

    def read(self, artifacts: Iterable[str]) -> dict[str, Any]:
        """Provide ``artifacts`` after the run (see :meth:`EngineRun.reader`)."""
        artifacts = tuple(artifacts)
        with _obs_use(None):
            self._provide(artifacts)
        missing = [a for a in artifacts if a not in self.run.artifacts]
        if missing:
            raise IncompleteRunError(self.run.failed, self.run.skipped, missing=missing)
        return {a: self.run.artifacts[a] for a in artifacts}

    def _blocked(self, node: StageNode) -> list[str]:
        return sorted(
            a for a in node.inputs if a not in self.digests or a in self.lost
        )

    def _skip(self, node: StageNode, blocked: list[str]) -> None:
        # failure isolation: an upstream node failed or was itself
        # skipped, so this node can never run — but the rest of the
        # generation is unaffected
        ctx = _obs()
        self.run.skipped[node.name] = "blocked_on:" + ",".join(blocked)
        self.lost.update(node.outputs)
        ctx.event("node.skipped", node.name, blocked_on=",".join(blocked))
        ctx.metrics.inc("engine.nodes_skipped")
        self.run.results.append(
            NodeResult(node=node.name, cache_hit=False, status="skipped")
        )

    def _execute(self, nodes: list[StageNode]) -> None:
        """Provide each node's inputs, then run the nodes that can run."""
        runnable = []
        for node in nodes:
            self._provide(node.inputs)
            blocked = self._blocked(node)
            if blocked:
                self._skip(node, blocked)
            else:
                runnable.append(node)
        self._run(runnable)

    def _provide(self, artifacts: tuple[str, ...]) -> None:
        """Load (or, failing that, execute) the producers of absent inputs."""
        missing: dict[str, list[str]] = {}
        for a in artifacts:
            if a not in self.run.artifacts and a not in self.lost:
                missing.setdefault(self.producer[a].name, []).append(a)
        for outputs in missing.values():
            node = self.producer[outputs[0]]
            if not self._read(node, outputs):
                self._miss(node)
                self._execute([node])

    # ---------------------------------------------------------------- cache

    def _record(self, name: str, seconds: float, cached: bool, count: int = 1) -> None:
        """Add one load, execution or attempt to the node's stage entry."""
        if self.stages is None:
            return
        stage = self.stages.setdefault(name, StageTime())
        stage.seconds += seconds
        stage.count += count
        stage.cached = cached

    def _defer(self, node: StageNode) -> None:
        ctx = _obs()
        # the same stage entry and spans a read would leave, so stage
        # facts and event counts do not depend on what was unpickled
        with _stage_span(self.stages is not None, node.name), ctx.span(
            "engine.node", node=node.name, cache_hit=True
        ):
            pass
        self._record(node.name, 0.0, cached=True)
        self.deferred[node.name] = node

    def _load(self, node: StageNode, outputs: list[str]) -> tuple[dict | None, float]:
        """``outputs`` of ``node``'s entry (``None`` on a miss), and the seconds taken.

        A miss is a key-prefix collision, a concurrent eviction, or a
        corrupt entry (now quarantined by the cache itself).
        """
        t0 = time.perf_counter()
        try:
            loaded = self.cache.load(node.name, self.keys[node.name], outputs=outputs)
        except KeyError:
            loaded = None
        return loaded, time.perf_counter() - t0

    def _serve(self, node: StageNode, outputs: list[str]) -> bool:
        """Serve ``node`` from its entry, unpickling ``outputs``; False on a miss."""
        with _stage_span(self.stages is not None, node.name), _obs().span(
            "engine.node", node=node.name, cache_hit=True
        ):
            loaded, seconds = self._load(node, outputs)
        # a failed load counts, the execution that follows adds to it
        self._record(node.name, seconds, cached=loaded is not None)
        if loaded is None:
            return False
        self._hit(node, loaded)
        return True

    def _read(self, node: StageNode, outputs: list[str]) -> bool:
        """Load ``outputs`` of an already-served node on demand."""
        loaded, seconds = self._load(node, outputs)
        # the node's entry already counts its hit: the read adds seconds
        self._record(node.name, seconds, cached=True, count=0)
        if loaded is None:
            return False
        if self.deferred.pop(node.name, None) is not None:
            self._hit(node, loaded)
        else:  # its hit is counted; this read adds outputs
            self.run.artifacts.update(loaded)
        return True

    def _hit(self, node: StageNode, outputs: dict[str, Any]) -> None:
        ctx = _obs()
        ctx.metrics.inc("engine.cache.hits")
        ctx.event("cache.hit", node.name, key=self.keys[node.name][:16])
        self._adopt(node, outputs, cache_hit=True)

    def _miss(self, node: StageNode) -> None:
        if self.cache is not None and node.cacheable:
            _obs().event("cache.miss", node.name, key=self.keys[node.name][:16])
        self.deferred.pop(node.name, None)

    def _adopt(self, node: StageNode, outputs: dict[str, Any], cache_hit: bool) -> None:
        """Record one node's (loaded or produced) outputs."""
        for name in node.outputs:
            if name in outputs:
                self.run.artifacts[name] = outputs[name]
        self.run.results.append(
            NodeResult(
                node=node.name,
                outputs=outputs,
                cache_hit=cache_hit,
                key=self.keys[node.name],
            )
        )

    # ------------------------------------------------------------ execution

    def _input(self, artifact: str) -> Any:
        value = self.run.artifacts[artifact]
        if isinstance(value, DeferredSeed):
            value = self.run.artifacts[artifact] = value.read()
        return value

    def _tasks(self, nodes: list[StageNode]) -> list[tuple]:
        return [
            (
                node,
                self.params,
                {a: self._input(a) for a in node.inputs},
                self.cache if node.cacheable else None,
                self.keys[node.name],
                self.stages is not None,
            )
            for node in nodes
        ]

    def _dispatch(self, nodes: list[StageNode]) -> list:
        """One attempt of each node: ``(outputs, seconds)``, or a captured error.

        ``min(workers, len(nodes))`` processes run the attempts through
        ``parallel_map``, each within its node's wall deadline.  A serial
        dispatch runs each task here, in the caller's observability
        context, so ``--profile`` and trace nesting see every node.
        """
        tasks = self._tasks(nodes)
        workers = min(self.cfg.workers or 1, len(nodes))
        if workers > 1:
            return parallel_map(
                _node_task,
                tasks,
                ParallelConfig(workers=workers, min_items_per_worker=1),
                capture_errors=self.capture,
                deadlines=[self.sup.policy(n.name).deadline for n in nodes],
            )
        task = _CaptureErrors(_node_task) if self.capture else _node_task
        return [task(t) for t in tasks]

    def _run(self, pending: list[StageNode]) -> None:
        """Retry, deadline, isolate: rounds of attempts.

        Every still-active node gets attempt *k* together, outcomes are
        folded in the given order (so events and accounting are
        worker-count independent), failures under their attempt budget
        are backed off on the virtual clock and re-queued.  Unsupervised
        there is one round, no chaos draw and no captured failure.
        """
        ctx, sup = _obs(), self.sup
        cache, keys = self.cache, self.keys
        attempts = {n.name: 0 for n in pending}
        active = list(pending)
        while active:
            outcomes: dict[str, Any] = {}
            dispatch: list[StageNode] = []
            for node in active:
                attempts[node.name] += 1
                kind = sup.draw_node(node.name, attempts[node.name])
                if kind is ChaosKind.EXCEPTION:
                    ctx.event(
                        "fault.injected", node.name, kind=kind.value, site="node"
                    )
                    outcomes[node.name] = TaskError(
                        kind="ChaosError",
                        message=(
                            f"chaos: injected exception in node {node.name!r} "
                            f"attempt {attempts[node.name]}"
                        ),
                    )
                elif kind is ChaosKind.HANG:
                    # virtual hang: charge what the watchdog would have
                    # waited, surface the same deadline error it would raise
                    ctx.event(
                        "fault.injected", node.name, kind=kind.value, site="node"
                    )
                    sup.charge_hang(node.name)
                    outcomes[node.name] = TaskError(
                        kind=DEADLINE_ERROR,
                        message=f"node {node.name!r} hung past its deadline",
                    )
                else:
                    dispatch.append(node)

            for node, out in zip(dispatch, self._dispatch(dispatch)):
                if isinstance(out, TaskError):
                    # a failed attempt counts; its seconds stayed
                    # in the process that ran it
                    self._record(node.name, 0.0, cached=False)
                    outcomes[node.name] = out
                else:
                    outcomes[node.name], seconds = out
                    self._record(node.name, seconds, cached=False)

            retry: list[StageNode] = []
            for node in active:
                name = node.name
                out = outcomes[name]
                if isinstance(out, TaskError):
                    if out.kind == CacheWriteError.__name__:
                        # the body finished but its entry could not land
                        # (disk full, quota): a retry would recompute the
                        # body and fail the same way, so abort as unsupervised
                        raise CacheWriteError(out.message)
                    if out.kind == DEADLINE_ERROR:
                        ctx.event("node.timeout", name, attempt=attempts[name])
                        ctx.metrics.inc("engine.node.timeouts")
                    if attempts[name] < sup.policy(name).max_attempts:
                        sup.charge_backoff(name, attempts[name])
                        ctx.event(
                            "node.retry", name, attempt=attempts[name], error=out.kind
                        )
                        ctx.metrics.inc("engine.node.retries")
                        retry.append(node)
                    else:
                        reason = f"{out.kind}: {out.message}"
                        self.run.failed[name] = reason
                        self.lost.update(node.outputs)
                        ctx.event(
                            "node.failed", name, attempts=attempts[name], error=out.kind
                        )
                        ctx.metrics.inc("engine.nodes_failed")
                        self.run.results.append(
                            NodeResult(
                                node=name,
                                cache_hit=False,
                                key=keys[name],
                                status="failed",
                                attempts=attempts[name],
                            )
                        )
                else:
                    key = keys[name]
                    ctx.metrics.inc("engine.cache.misses")
                    ctx.metrics.inc("engine.nodes_executed")
                    if cache is not None and node.cacheable:
                        # the node task already saved the entry
                        wkind = sup.draw_write(name, key)
                        if wkind is not None:
                            # the entry this run just wrote gets damaged on
                            # disk — this run already holds the outputs; the
                            # *next* run must quarantine and recompute
                            ctx.event(
                                "fault.injected",
                                name,
                                kind=wkind.value,
                                site="cache.write",
                            )
                            sup.corrupt_entry(
                                cache.entry_path(name, key), name, key, wkind
                            )
                    self._adopt(node, out, cache_hit=False)
                    self.run.results[-1].attempts = attempts[name]
            active = retry

