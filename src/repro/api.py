"""repro.api — the stable, supported public surface.

Downstream code should import from here rather than from the internal
module layout, which is free to keep moving::

    from repro.api import RunConfig, WorldConfig, run_pipeline

    result = run_pipeline(RunConfig(world=WorldConfig(seed=7)))

``run_pipeline`` is the one entry point: the same call runs the sharded
pipeline when ``RunConfig.shards`` is set, and both paths return a
:class:`PipelineResult` (``run_sharded`` is another name for it).

Everything re-exported below is covered by the public-API tests
(``tests/test_public_api.py``), which pin this exact name list: adding
a name here is an API promise, removing one is a breaking change.
"""

from repro.contracts.audit import ContractReport
from repro.contracts.schema import ContractViolationError, ValidationMode
from repro.engine import ArtifactCache, StageGraph, StageNode
from repro.faults.degradation import DegradedCoverage, LossRecord
from repro.faults.plan import FaultConfig
from repro.gender.resolver import ResolverPolicy
from repro.obs.context import ObsContext
from repro.pipeline.config import EngineConfig, RunConfig
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.runner import PipelineResult, run_pipeline, run_sharded
from repro.synth.config import WorldConfig
from repro.synth.shards import ShardPlan, ShardSpec
from repro.synth.world import SyntheticWorld, build_world
from repro.util.parallel import ParallelConfig
from repro.version import __version__

__all__ = [
    # entry points
    "run_pipeline",
    "run_sharded",
    "build_world",
    "__version__",
    # run configuration
    "RunConfig",
    "EngineConfig",
    "WorldConfig",
    "ParallelConfig",
    "ResolverPolicy",
    "FaultConfig",
    "ValidationMode",
    "ObsContext",
    # sharded scaling surface
    "ShardPlan",
    "ShardSpec",
    # results
    "PipelineResult",
    "AnalysisDataset",
    "SyntheticWorld",
    "DegradedCoverage",
    "LossRecord",
    "ContractReport",
    "ContractViolationError",
    # engine / persistence
    "ArtifactCache",
    "StageGraph",
    "StageNode",
]
