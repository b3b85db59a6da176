"""repro.engine — stage-DAG execution with content-addressed caching.

Every pipeline run executes as an explicit dependency graph:

- :mod:`repro.engine.node` / :mod:`repro.engine.dag` — stages declared
  as nodes with named inputs/outputs, validated and ordered into
  generations of mutually independent nodes;
- :mod:`repro.engine.fingerprint` — deterministic SHA-256 keys over
  world/config fingerprints, node params, and upstream digests;
- :mod:`repro.engine.cache` — the content-addressed artifact cache
  (atomic, fsynced writes; the pipeline's one persistence mechanism);
- :mod:`repro.engine.executor` — the scheduler: cache-or-execute per
  node, every generation through one attempt loop whose independent
  nodes run concurrently via ``parallel_map``;
- :mod:`repro.engine.supervise` — supervised execution: bounded
  retries on a virtual clock, per-node deadlines (``parallel_map``'s
  wall deadlines on worker pools), failure isolation, deterministic
  chaos injection;
- :mod:`repro.engine.stages` — the pipeline's stages as node bodies
  (their only definition; the sharded path composes them too).

Entry point for callers:
``run_pipeline(RunConfig(engine=EngineConfig(cache_dir=...)))`` — a
fully cached run re-executes zero stage bodies.
"""

from repro.engine.cache import ArtifactCache, CacheMismatch, CacheWriteError
from repro.engine.dag import GraphError, StageGraph
from repro.engine.executor import DeferredSeed, EngineConfig, EngineRun, run_dag
from repro.engine.fingerprint import canonical, fingerprint, world_fingerprint
from repro.engine.node import NodeResult, StageNode, StageTime
from repro.engine.stages import PipelineParams, build_graph
from repro.engine.supervise import (
    IncompleteRunError,
    NodePolicy,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "ArtifactCache",
    "CacheMismatch",
    "CacheWriteError",
    "GraphError",
    "StageGraph",
    "DeferredSeed",
    "EngineConfig",
    "EngineRun",
    "run_dag",
    "canonical",
    "fingerprint",
    "world_fingerprint",
    "NodeResult",
    "StageNode",
    "StageTime",
    "PipelineParams",
    "build_graph",
    "NodePolicy",
    "SupervisorConfig",
    "Supervisor",
    "IncompleteRunError",
]
