"""Sharded streaming execution: one engine DAG node per conference×edition.

The monolithic pipeline builds one world, harvests every edition, and
links/enriches/infers over whole in-memory lists — fine at the paper's
~2.5k researchers, hopeless at the ROADMAP's 10⁵–10⁶.  This module
splits the universe into conference×edition *shards*
(:class:`repro.synth.shards.ShardPlan`):

- each shard is generated, harvested, linked, enriched, and
  gender-inferred by an independent :class:`~repro.engine.node.StageNode`
  whose body is a pure function of ``(seed, shard)`` and composes the
  monolithic pipeline's stage bodies — shards execute in parallel and
  land in the content-addressed artifact cache as each one finishes, so
  editing one edition's targets re-executes exactly that shard, and a
  run that dies part-way resumes from the shards it completed;
- a shard's heavyweight intermediates (the synthetic world, harvested
  pages, linked records) die with the node body; only the compact
  per-shard analysis tables flow to the merge;
- the merge stacks shards **in plan order** — one ``np.concatenate``
  per column — then re-derives the cross-shard researcher identity
  exactly the way :func:`repro.pipeline.link.link_identities` does
  within a shard: same normalized name key ⇒ same researcher, numbered
  by first appearance.  Merge output is byte-identical for any
  shard-worker count.

This module declares the sharded graph; the run itself is started, like
every run, by :func:`repro.pipeline.runner.run_pipeline`, which builds
this graph when ``RunConfig.shards`` (or a shard plan) is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.faults.degradation import DegradedCoverage, FaultStats, LossRecord
from repro.faults.plan import FaultConfig
from repro.gender.model import GenderAssignment
from repro.gender.resolver import GenderResolver, ResolverPolicy
from repro.pipeline.config import EngineConfig, RunConfig
from repro.pipeline.dataset import AnalysisDataset
from repro.synth.config import WorldConfig
from repro.synth.shards import ShardPlan, ShardSpec
from repro.tabular import Column, Table, concat_tables
from repro.tabular.codes import factorize

__all__ = ["ShardResult", "build_shard_graph", "plan_sharded_run"]


# --------------------------------------------------------------------- shards


@dataclass(frozen=True)
class ShardParams:
    """Run-level parameters handed to every shard/merge node body.

    Everything here that affects node output is mirrored into the
    respective node's ``params`` (which enter the cache fingerprint), so
    a cache hit can never serve a stale result.
    """

    config: WorldConfig
    policy: ResolverPolicy | None
    faults: FaultConfig | None
    order: tuple[str, ...]


@dataclass
class ShardResult:
    """The compact survivable output of one shard node.

    Holds only analysis tables and merge bookkeeping — the shard's
    synthetic world, harvested pages, and linked records are freed when
    the node body returns, which is what bounds peak memory.
    """

    key: str
    conference: str
    year: int
    dataset: AnalysisDataset
    name_keys: tuple[str, ...]          # aligned with dataset.researchers rows
    losses: list[LossRecord]
    stats: FaultStats
    total_editions: int
    harvested_editions: int


def stage_shard(spec: ShardSpec, params: ShardParams, inputs: dict) -> dict:
    """Build + harvest + link + enrich + infer one conference×edition.

    Pure in ``(config.seed, spec)``: the world draws from the named rng
    stream ``("shard", conference, year)`` and the population plan comes
    from the shard's own targets with repeat factors of 1.0 (a
    one-edition pool has no cross-conference overlap to discount).  The
    stages after the world are the monolithic pipeline's own bodies
    (:mod:`repro.engine.stages`), composed in-process without data
    contracts.
    """
    from repro.engine.stages import (
        PipelineParams,
        fault_totals,
        stage_dataset,
        stage_enrich,
        stage_infer,
        stage_ingest,
        stage_link,
    )
    from repro.synth.population import plan_from_targets
    from repro.synth.world import build_world

    world = build_world(
        params.config,
        targets=[spec.target],
        year=spec.year,
        rng_path=("shard", spec.conference, spec.year),
        population_plan=plan_from_targets(
            [spec.target], author_repeat=1.0, pc_repeat=1.0
        ),
    )
    stage_params = PipelineParams(policy=params.policy, faults=params.faults)
    art = {"world": world}
    for stage in (stage_ingest, stage_link, stage_enrich, stage_infer, stage_dataset):
        art.update(stage(stage_params, art))

    report = art["ingest_report"]
    losses, stats = fault_totals(report, art["enrich_faults"], art["infer_faults"])
    dataset, linked = art["dataset"], art["linked"]
    name_keys = tuple(
        linked.researchers[rid].name_key for rid in dataset.researchers["researcher_id"]
    )
    result = ShardResult(
        key=spec.key,
        conference=spec.conference,
        year=spec.year,
        dataset=dataset,
        name_keys=name_keys,
        losses=losses,
        stats=stats,
        total_editions=report.total_editions,
        harvested_editions=report.harvested_editions,
    )
    return {f"shard:{spec.key}": result}


# ---------------------------------------------------------------------- merge

_TABLES = (
    "researchers", "author_positions", "conf_authors", "papers", "conferences", "role_slots",
)

# per-researcher columns re-derived from the merged identity (first
# occurrence in plan order wins, matching link_identities' first-seen
# spelling rule within a shard)
_DEMOGRAPHICS = ("gender", "country", "region", "sector")


@dataclass
class MergedShards:
    """Deterministic fold of all shard results (the ``merged`` artifact)."""

    dataset: AnalysisDataset
    coverage: dict[str, float]
    degraded: DegradedCoverage | None
    shard_keys: tuple[str, ...]


def _stack(tables: list[Table]) -> Table:
    """Shard tables stacked in plan order, kinds promoted across shards.

    Zero-row tables take no part: a shard whose paper list was lost
    emits column-less tables, and a zero-row table with columns infers
    every one as ``str``, which would promote ``year`` or ``position``.
    When every shard's table is empty the first one stands for all.
    """
    return concat_tables([t for t in tables if t.num_rows] or tables[:1])


def _replace_columns(base: Table, replacements: dict[str, Column]) -> Table:
    """A table with some columns swapped, order preserved."""
    return Table(
        [replacements.get(name, base.col(name)) for name in base.columns]
    )


def _local_rows(shards: list[ShardResult], attr: str, column: str, row_of: list[dict]):
    """Stacked researcher row of each local id in ``attr.column``; None → -1."""
    parts = [
        np.fromiter(map(lookup.__getitem__, t[column]), dtype=np.int64, count=t.num_rows)
        for t, lookup in zip((getattr(s.dataset, attr) for s in shards), row_of)
        if t.num_rows
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _fold_identity(shards: list[ShardResult], stacked: dict[str, Table]) -> AnalysisDataset:
    """Re-key the stacked shard tables by merged researcher (see stage_merge)."""
    # merged id: the first-seen code of the name key in plan order, which
    # numbers researchers exactly as a sequential dict fold would
    keys = Column("name_key", [k for s in shards for k in s.name_keys], kind="str")
    fact = factorize(keys)
    gid, n = fact.codes, fact.n_codes
    first = np.empty(n, dtype=np.int64)
    # reversed scatter: the last write per code is its first occurrence
    first[gid[::-1]] = np.arange(gid.size - 1, -1, -1, dtype=np.int64)

    res = stacked["researchers"]
    merged = res.take(first)
    rids = [f"r{g:06d}" for g in range(n)]
    # per-code values plus a trailing None at code n, the code of a
    # missing id (a single-author paper's last_author)
    by_code = {}
    sources = {"researcher_id": rids, **{d: merged[d] for d in _DEMOGRAPHICS if d in merged}}
    for name, values in sources.items():
        by_code[name] = np.empty(n + 1, dtype=object)
        by_code[name][:n] = values
    code_of_row = np.append(gid, n)  # stacked researcher row -> code; -1 -> n

    def rekey(name: str, source: str, codes: np.ndarray) -> Column:
        return Column(name, by_code[source][codes], kind="str")

    offsets = np.cumsum([0] + [len(s.name_keys) for s in shards])
    row_of = []
    for s, lo, hi in zip(shards, offsets, offsets[1:]):
        lookup = {None: -1}
        if hi > lo:  # a zero-row researchers table has no columns
            lookup.update(zip(s.dataset.researchers["researcher_id"], range(lo, hi)))
        row_of.append(lookup)

    # role flags: the OR over occurrences
    repl = {
        flag: Column(flag, np.bincount(gid, weights=res[flag], minlength=n) > 0)
        for flag in ("is_author", "is_pc")
    }
    repl["researcher_id"] = rekey("researcher_id", "researcher_id", np.arange(n))
    tables = {
        "researchers": _replace_columns(merged, repl),
        "conferences": stacked["conferences"],
    }
    for attr in ("author_positions", "conf_authors", "role_slots"):
        codes = code_of_row[_local_rows(shards, attr, "researcher_id", row_of)]
        tables[attr] = _replace_columns(
            stacked[attr],
            {name: rekey(name, name, codes) for name in by_code if name in stacked[attr]},
        )
    repl = {}
    for end in ("first", "last"):
        codes = code_of_row[_local_rows(shards, "papers", f"{end}_author", row_of)]
        repl[f"{end}_author"] = rekey(f"{end}_author", "researcher_id", codes)
        repl[f"{end}_gender"] = rekey(f"{end}_gender", "gender", codes)
    tables["papers"] = _replace_columns(stacked["papers"], repl)

    # assignments are read once per merged researcher, at its first occurrence
    shard_of = np.repeat(np.arange(len(shards)), np.diff(offsets))[first].tolist()
    assignments: dict[str, GenderAssignment] = {}
    for rid, s, local in zip(rids, shard_of, merged["researcher_id"]):
        a = shards[s].dataset.assignments.get(local)
        if a is not None:
            assignments[rid] = a
    return AnalysisDataset(**tables, assignments=assignments)


def stage_merge(params: ShardParams, inputs: dict) -> dict:
    """Fold per-shard results into one dataset, in fixed plan order.

    Cross-shard identity is by normalized name key — the same rule (and
    the same known failure mode: distinct same-named researchers merge)
    the paper's linking applies within one harvest.  The first
    occurrence, in plan order, contributes the researcher's demographic
    attributes and gender assignment; the role flags are the OR over
    all occurrences.  Every per-researcher column in the
    position/paper/role tables is then re-derived from the merged
    identity, so the output is internally consistent and independent of
    worker count or shard completion order.

    The fold is columnar: each table is stacked once, the name keys are
    factorized once, and flags, first occurrences and re-keyed columns
    are NumPy gathers and bincounts.
    """
    shards: list[ShardResult] = [inputs[f"shard:{k}"] for k in params.order]
    stacked = {
        attr: _stack([getattr(s.dataset, attr) for s in shards]) for attr in _TABLES
    }
    if any(s.name_keys for s in shards):
        dataset = _fold_identity(shards, stacked)
    else:  # every shard lost its editions: nothing to re-key
        dataset = AnalysisDataset(**stacked)

    degraded = None
    if params.faults is not None:
        from repro.engine.stages import fault_totals

        losses, stats = fault_totals(*shards)
        degraded = DegradedCoverage.from_parts(
            total_editions=sum(sh.total_editions for sh in shards),
            harvested_editions=sum(sh.harvested_editions for sh in shards),
            losses=losses,
            stats=stats,
        )

    merged = MergedShards(
        dataset=dataset,
        coverage=GenderResolver.coverage(dataset.assignments),
        degraded=degraded,
        shard_keys=tuple(params.order),
    )
    return {"merged": merged}


# ------------------------------------------------------------------ graph/run


def build_shard_graph(plan: ShardPlan, params: ShardParams):
    """Declare the sharded DAG: one node per shard, one merge node.

    Each shard node's cache fingerprint covers its spec (targets
    included), the normalized world config, and the fault/resolver
    policies — everything its body reads — so editing one edition's
    targets invalidates exactly that shard plus the merge.
    """
    from repro.engine import StageGraph, StageNode

    fp = StageNode.freeze_params
    graph = StageGraph()
    for spec in plan:
        name = f"shard:{spec.key}"
        graph.add(
            StageNode(
                name,
                functools.partial(stage_shard, spec),
                inputs=(),
                outputs=(name,),
                params=fp(
                    {
                        "shard": spec,
                        "config": params.config,
                        "faults": params.faults,
                        "policy": params.policy,
                    }
                ),
            )
        )
    graph.add(
        StageNode(
            "merge",
            stage_merge,
            inputs=tuple(f"shard:{k}" for k in plan.keys),
            outputs=("merged",),
            params=fp({"order": params.order, "config": params.config}),
        )
    )
    return graph


def _normalized_world(rc: RunConfig) -> tuple[WorldConfig, WorldConfig]:
    """(effective, per-shard) world configs for a sharded run."""
    wc = rc.world or WorldConfig()
    if rc.shards is not None and wc.venues == 0:
        wc = replace(wc, venues=rc.shards)
    shard_cfg = replace(wc, years=(), venues=0, include_timeline=False)
    return wc, shard_cfg


def plan_sharded_run(rc: RunConfig, plan: ShardPlan | None = None):
    """Everything :func:`~repro.pipeline.runner.run_pipeline` executes.

    Returns ``(world config, plan, graph, params, engine)``: the
    effective world configuration, the shard plan (``plan`` or the one
    the configuration implies), the shard DAG with its parameters, and
    the engine options with ``rc.shard_workers`` as the worker count.
    ``shard_workers`` only changes the wall-clock — the merged dataset
    is byte-identical for any worker count.
    """
    wc, shard_cfg = _normalized_world(rc)
    if plan is None:
        plan = ShardPlan.from_config(wc)
    params = ShardParams(
        config=shard_cfg, policy=rc.policy, faults=rc.faults, order=plan.keys
    )
    base = rc.engine or EngineConfig()
    engine = replace(base, workers=rc.shard_workers or base.workers)
    return wc, plan, build_shard_graph(plan, params), params, engine
