"""The end-to-end analysis pipeline.

Stages (each a module, composable separately):

1. :mod:`repro.pipeline.ingest`  — generate + scrape every conference
   site (optionally in parallel, deterministically).
2. :mod:`repro.pipeline.link`    — identity resolution: names observed
   across pages/papers become researchers.
3. :mod:`repro.pipeline.enrich`  — Google Scholar / Semantic Scholar
   linking, country and sector resolution.
4. :mod:`repro.pipeline.infer`   — the gender-assignment cascade.
5. :mod:`repro.pipeline.dataset` — the tabular
   :class:`~repro.pipeline.dataset.AnalysisDataset` the analyses read.
6. :mod:`repro.pipeline.runner`  — :func:`run_pipeline`: the stage
   sequence of :mod:`repro.engine.stages` run on the stage-DAG engine.
7. :mod:`repro.pipeline.sharded` — :func:`run_sharded`: the
   conference×edition-sharded streaming pipeline for scaled universes.

Nothing downstream of ingest reads the ground truth: tables and figures
are recomputed from harvested artifacts, so pipeline defects show up as
deviations from the paper, not as silent self-confirmation.
"""

from repro.pipeline.ingest import (
    ingest_world,
    ingest_world_resilient,
    IngestReport,
    HarvestOutcome,
)
from repro.pipeline.link import link_identities, LinkedData, ResearcherRecord
from repro.pipeline.enrich import enrich_researchers, Enrichment
from repro.pipeline.infer import infer_genders, InferenceOutcome
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.config import EngineConfig, RunConfig
from repro.pipeline.runner import run_pipeline, PipelineResult
from repro.pipeline.sharded import run_sharded, ShardedRunResult, ShardResult

__all__ = [
    "EngineConfig",
    "RunConfig",
    "ingest_world",
    "ingest_world_resilient",
    "IngestReport",
    "HarvestOutcome",
    "link_identities",
    "LinkedData",
    "ResearcherRecord",
    "enrich_researchers",
    "Enrichment",
    "infer_genders",
    "InferenceOutcome",
    "AnalysisDataset",
    "run_pipeline",
    "PipelineResult",
    "run_sharded",
    "ShardedRunResult",
    "ShardResult",
]
