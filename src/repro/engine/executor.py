"""The engine: fingerprint, schedule, cache, execute.

``run_dag`` walks a :class:`~repro.engine.dag.StageGraph` in
topological generations.  For every node it derives a content-addressed
key — SHA-256 over the node's declared params, its code version, and
the keys of its upstream outputs (seed artifacts contribute their own
digests, e.g. the world fingerprint) — and then either

- **serves the node from cache** (``engine.cache.hits``; the node body
  never runs, its span carries ``cache_hit=True``), or
- **executes it** (``engine.cache.misses``), concurrently with the rest
  of its generation when an :class:`EngineConfig` requests workers —
  via the same deterministic ``parallel_map`` pool the ingest stage
  uses, so results are bit-identical across worker counts — and stores
  the outputs for the next run as soon as the node finishes (inside
  the worker, for pooled generations), so a run that dies part-way
  keeps every node it completed.

Execution policy (worker counts, directories, refresh) never enters a
key: a serial run and a parallel run address the same cache entries.

With ``EngineConfig.supervise`` (or ``chaos``) set, execution runs
under a :class:`~repro.engine.supervise.Supervisor`: node failures are
retried with virtual-clock backoff, deadlines are enforced, and a node
that exhausts its attempts is recorded in :attr:`EngineRun.failed`
while only its downstream nodes are skipped — independent branches of
the DAG keep executing.  Without supervision the historical contract
holds exactly: any node exception propagates and aborts the run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import ArtifactCache, CacheWriteError
from repro.engine.dag import StageGraph
from repro.engine.fingerprint import fingerprint
from repro.engine.node import NodeResult, StageNode
from repro.engine.supervise import (
    DEADLINE_ERROR,
    Supervisor,
    SupervisorConfig,
    watchdog_map,
)
from repro.faults.chaos import ChaosKind
from repro.obs.context import current as _obs
from repro.pipeline.config import EngineConfig
from repro.util.parallel import ParallelConfig, TaskError, parallel_map

__all__ = ["EngineConfig", "EngineRun", "run_dag"]


@dataclass
class EngineRun:
    """Artifacts plus per-node accounting for one DAG execution.

    ``failed`` maps exhausted nodes to their final error; ``skipped``
    maps nodes that never ran to the upstream artifacts that blocked
    them.  Both are empty on an unsupervised run (failures abort
    instead).  ``retries`` and ``virtual_time`` come from the
    supervisor's clock — deterministic for a given chaos/backoff seed.
    """

    artifacts: dict[str, Any] = field(default_factory=dict)
    results: list[NodeResult] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    virtual_time: float = 0.0

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


def _node_task(task: tuple) -> dict[str, Any]:
    """Execute one node body and cache its outputs (picklable for workers).

    ``task`` is ``(node, params, inputs, cache, key)``; ``cache`` is
    ``None`` when the node's outputs are not to be stored.
    """
    node, params, inputs, cache, key = task
    ctx = _obs()
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
    return outputs


def _tasks(run: EngineRun, nodes, keys, params, cache) -> list[tuple]:
    return [
        (
            node,
            params,
            {a: run.artifacts[a] for a in node.inputs},
            cache if node.cacheable else None,
            keys[node.name],
        )
        for node in nodes
    ]


def run_dag(
    graph: StageGraph,
    params: Any,
    seeds: dict[str, Any] | None = None,
    seed_digests: dict[str, str] | None = None,
    engine: EngineConfig | None = None,
    timer: Any | None = None,
) -> EngineRun:
    """Execute ``graph``, returning every artifact it produced.

    ``seeds`` are caller-injected artifacts (a prebuilt world);
    ``seed_digests`` their content digests, folded into downstream keys.
    ``timer`` is an optional :class:`~repro.util.timing.StageTimer`:
    each node's load-or-execute time is recorded under its name, and
    cache hits are marked so reports don't read load time as work.
    """
    cfg = engine or EngineConfig()
    cache = ArtifactCache(cfg.cache_dir) if cfg.cache_dir is not None else None
    ctx = _obs()
    sup: Supervisor | None = None
    if cfg.supervise is not None or cfg.chaos is not None:
        sup = Supervisor(cfg.supervise or SupervisorConfig(), chaos=cfg.chaos)

    run = EngineRun(artifacts=dict(seeds or {}))
    digests: dict[str, str] = dict(seed_digests or {})
    for name in run.artifacts:
        digests.setdefault(name, fingerprint("seed", name))

    for generation in graph.generations():
        pending: list[StageNode] = []
        keys: dict[str, str] = {}
        for node in generation:
            blocked = sorted(a for a in node.inputs if a not in digests)
            if blocked:
                # failure isolation: an upstream node failed or was
                # itself skipped, so this node can never run — but the
                # rest of the generation is unaffected
                run.skipped[node.name] = "blocked_on:" + ",".join(blocked)
                ctx.event("node.skipped", node.name, blocked_on=",".join(blocked))
                ctx.metrics.inc("engine.nodes_skipped")
                run.results.append(
                    NodeResult(node=node.name, cache_hit=False, status="skipped")
                )
                continue
            key = fingerprint(
                "node",
                node.name,
                node.version,
                node.params,
                [(a, digests[a]) for a in node.inputs],
            )
            keys[node.name] = key
            if (
                cache is not None
                and node.cacheable
                and not cfg.refresh
                and cache.has(node.name, key)
            ):
                try:
                    with _timed(timer, node.name), ctx.span(
                        "engine.node", node=node.name, cache_hit=True
                    ):
                        outputs = cache.load(node.name, key)
                except KeyError:
                    # has() lied: a key-prefix collision, a concurrent
                    # eviction, or a corrupt entry (now quarantined by
                    # the cache itself) — fall through and execute
                    pass
                else:
                    if timer is not None:
                        timer.mark_cached(node.name)
                    ctx.metrics.inc("engine.cache.hits")
                    ctx.event("cache.hit", node.name, key=key[:16])
                    _adopt(run, digests, node, key, outputs, cache_hit=True)
                    continue
            if cache is not None and node.cacheable:
                ctx.event("cache.miss", node.name, key=key[:16])
            pending.append(node)

        if not pending:
            continue
        if sup is not None:
            _run_supervised(run, digests, pending, keys, params, cfg, sup, cache, timer)
        else:
            _run_bare(run, digests, pending, keys, params, cfg, cache, timer)

    if sup is not None:
        run.retries = sup.retries
        run.virtual_time = sup.clock.now
    return run


def _run_bare(run, digests, pending, keys, params, cfg, cache, timer) -> None:
    """One generation, historical semantics: any exception aborts."""
    ctx = _obs()
    tasks = _tasks(run, pending, keys, params, cache)
    if cfg.workers and cfg.workers > 1 and len(pending) > 1:
        pool = ParallelConfig(workers=cfg.workers, min_items_per_worker=1)
        label = "+".join(n.name for n in pending)
        with _timed(timer, label):
            produced = parallel_map(_node_task, tasks, pool)
    else:
        produced = []
        for task in tasks:
            with _timed(timer, task[0].name):
                produced.append(_node_task(task))

    for node, outputs in zip(pending, produced):
        key = keys[node.name]
        ctx.metrics.inc("engine.cache.misses")
        ctx.metrics.inc("engine.nodes_executed")
        _adopt(run, digests, node, key, outputs, cache_hit=False)


def _run_supervised(
    run, digests, pending, keys, params, cfg, sup: Supervisor, cache, timer
) -> None:
    """One generation under supervision: retry, deadline, isolate.

    Rounds of attempts: every still-active node gets attempt *k*
    together, outcomes are folded in generation order (so events and
    accounting are worker-count independent), failures under their
    attempt budget are backed off on the virtual clock and re-queued.
    """
    ctx = _obs()
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

        if dispatch:
            tasks = _tasks(run, dispatch, keys, params, cache)
            deadlines = [sup.policy(n.name).deadline for n in dispatch]
            use_pool = cfg.workers and cfg.workers > 1 and len(dispatch) > 1
            if use_pool and any(d is not None for d in deadlines):
                label = "+".join(n.name for n in dispatch)
                with _timed(timer, label):
                    produced = watchdog_map(
                        _node_task, tasks, deadlines, workers=cfg.workers
                    )
            elif use_pool:
                pool = ParallelConfig(workers=cfg.workers, min_items_per_worker=1)
                label = "+".join(n.name for n in dispatch)
                with _timed(timer, label):
                    produced = parallel_map(
                        _node_task, tasks, pool, capture_errors=True
                    )
            else:
                produced = []
                for task in tasks:
                    with _timed(timer, task[0].name):
                        # single-item parallel_map: same capture + obs
                        # adoption discipline as the pool path
                        produced.append(
                            parallel_map(
                                _node_task, [task], capture_errors=True
                            )[0]
                        )
            for node, out in zip(dispatch, produced):
                outcomes[node.name] = out

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
                    run.failed[name] = reason
                    ctx.event(
                        "node.failed", name, attempts=attempts[name], error=out.kind
                    )
                    ctx.metrics.inc("engine.nodes_failed")
                    run.results.append(
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
                _adopt(run, digests, node, key, out, cache_hit=False)
                run.results[-1].attempts = attempts[name]
        active = retry


def _timed(timer: Any | None, name: str):
    return timer.stage(name) if timer is not None else nullcontext()


def _adopt(
    run: EngineRun,
    digests: dict[str, str],
    node: StageNode,
    key: str,
    outputs: dict[str, Any],
    cache_hit: bool,
) -> None:
    """Record one node's outputs and derive their artifact digests."""
    for name in node.outputs:
        run.artifacts[name] = outputs[name]
        # content-addressed by construction: the producing node's key
        # already encodes everything upstream, so the artifact digest
        # is (key, output-name) — no need to hash the pickled bytes
        digests[name] = fingerprint("artifact", key, name)
    run.results.append(
        NodeResult(node=node.name, outputs=outputs, cache_hit=cache_hit, key=key)
    )
