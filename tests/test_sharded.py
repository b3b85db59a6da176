"""Sharded streaming pipeline: plan API, determinism, cache granularity.

The scientific claims this suite pins:

- a :class:`ShardPlan` is a stable, ordered partition of the universe —
  same config ⇒ same keys in the same (year, conference) order;
- the merged dataset's ledger body is byte-identical for any
  ``shard_workers`` count (parallelism is execution policy, not science);
- editing one edition's targets re-executes exactly that shard plus the
  merge — every other shard is served from the content-addressed cache;
- committee staffing keeps every PC at or above quorum even when
  ``scale`` rounds the nominal size below it;
- the columnar merge equals the loop-based fold it replaced, keeps every
  merged reference resolvable, and survives shards whose paper list was
  lost.
"""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    DegradedCoverage,
    EngineConfig,
    FaultConfig,
    RunConfig,
    ShardPlan,
    ShardSpec,
    WorldConfig,
    run_pipeline,
    run_sharded,
)
from repro.faults.degradation import FaultStats, LossRecord
from repro.gender.model import InferenceMethod
from repro.gender.resolver import GenderResolver
from repro.obs.ledger import body_digest, build_run_record
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.sharded import (
    MergedShards,
    ShardParams,
    ShardResult,
    _normalized_world,
    _stack,
    stage_merge,
    stage_shard,
)
from repro.synth.committees import PC_QUORUM
from repro.tabular import ChunkedTableBuilder, Column, Table, concat_tables

pytestmark = pytest.mark.scale

# three synthetic venues, one edition each: the smallest world that still
# exercises the cross-shard merge (sub-second end to end)
SMALL = WorldConfig(seed=9, scale=0.3, venues=3)


# ----------------------------------------------------------------- plan API


def test_plan_from_synthetic_config_is_sorted_and_unique():
    plan = ShardPlan.from_config(WorldConfig(seed=11, venues=3, years=(2016, 2017)))
    assert len(plan) == 6
    assert plan.keys == tuple(sorted(plan.keys, key=lambda k: (k[-4:], k)))
    assert len(set(plan.keys)) == 6
    for spec in plan:
        assert spec.key == f"{spec.conference}-{spec.year}"
        assert spec.target.date.startswith(str(spec.year))


def test_plan_from_paper_config_replicates_2017_roster():
    from repro.calibration.targets import CONFERENCES_2017

    plan = ShardPlan.from_config(WorldConfig(seed=1, years=(2016, 2017)))
    assert len(plan) == 2 * len(CONFERENCES_2017)
    names = {s.conference for s in plan}
    assert names == {t.name for t in CONFERENCES_2017}
    # dates are re-yeared copies of the paper's editions
    for spec in plan:
        assert spec.target.date.startswith(str(spec.year))


def test_plan_generation_is_pure_in_seed():
    a = ShardPlan.from_config(WorldConfig(seed=5, venues=4, years=(2018,)))
    b = ShardPlan.from_config(WorldConfig(seed=5, venues=4, years=(2018,)))
    c = ShardPlan.from_config(WorldConfig(seed=6, venues=4, years=(2018,)))
    assert a == b
    assert a.keys == c.keys  # identity is structural ...
    assert a != c  # ... but targets are seed-dependent draws


def test_with_target_edits_one_shard_only():
    plan = ShardPlan.from_config(SMALL)
    key = plan.keys[0]
    edited = plan.with_target(key, papers=plan.shards[0].target.papers + 2)
    assert edited.keys == plan.keys
    assert edited.shards[0].target.papers == plan.shards[0].target.papers + 2
    assert edited.shards[1:] == plan.shards[1:]
    with pytest.raises(KeyError):
        plan.with_target("NOPE-1999")


def test_plan_rejects_empty_and_duplicate_keys():
    with pytest.raises(ValueError):
        ShardPlan(shards=())
    spec = ShardPlan.from_config(SMALL).shards[0]
    with pytest.raises(ValueError):
        ShardPlan(shards=(spec, spec))


def test_worldconfig_scaling_surface_validation():
    with pytest.raises(ValueError):
        WorldConfig(seed=1, years=(2017, 2017))
    with pytest.raises(ValueError):
        WorldConfig(seed=1, venues=-1)
    with pytest.raises(ValueError):
        WorldConfig(seed=1, scale=2000.0)
    cfg = WorldConfig(seed=1, scale=0.01)
    assert cfg.scaled(40) == 1
    assert cfg.scaled(300, floor=3) == 3


# ------------------------------------------------------------ quorum floor


def test_committees_stay_at_quorum_under_tiny_scale():
    result = run_pipeline(RunConfig(world=WorldConfig(seed=3, scale=0.01)))
    slots = result.dataset.role_slots
    pc = [
        conf
        for conf, role in zip(slots["conference"], slots["role"])
        if role == "pc_member"
    ]
    counts = {c: pc.count(c) for c in set(pc)}
    assert counts, "expected PC slots in the dataset"
    assert min(counts.values()) >= PC_QUORUM


# ------------------------------------------------------------ sharded runs


def test_run_sharded_merges_a_consistent_dataset():
    res = run_sharded(RunConfig(world=SMALL, shards=3))
    assert len(res.plan) == 3
    assert res.researchers > 0
    rt = res.dataset.researchers
    rids = list(rt["researcher_id"])
    assert len(rids) == len(set(rids))
    known = set(rids)
    for tbl in (res.dataset.author_positions, res.dataset.role_slots):
        assert set(tbl["researcher_id"]) <= known
    assert set(res.dataset.papers["first_author"]) <= known
    assert abs(sum(res.coverage.values()) - 1.0) < 1e-9
    # merged demographics must agree with the researchers table
    gender_of = dict(zip(rt["researcher_id"], rt["gender"]))
    ap = res.dataset.author_positions
    for rid, g in zip(ap["researcher_id"], ap["gender"]):
        assert gender_of[rid] == g


def test_merge_is_byte_identical_across_worker_counts():
    world = WorldConfig(seed=9, scale=0.3, venues=3, years=(2016, 2017))
    digests = []
    for workers in (1, 4):
        rc = RunConfig(world=world, shards=3, shard_workers=workers)
        rec = build_run_record(run_sharded(rc), config=rc, command="test")
        digests.append(body_digest(rec.body))
    assert digests[0] == digests[1]


def test_fingerprint_ignores_workers_but_not_shards():
    world = WorldConfig(seed=9, scale=0.3, venues=3)
    f1 = RunConfig(world=world, shards=3, shard_workers=1).fingerprint()
    f4 = RunConfig(world=world, shards=3, shard_workers=4).fingerprint()
    f0 = RunConfig(world=world).fingerprint()
    assert f1 == f4  # execution policy
    assert f1 != f0  # scientific input


def test_editing_one_edition_reexecutes_exactly_that_shard(tmp_path):
    rc = RunConfig(
        world=SMALL, shards=3, engine=EngineConfig(cache_dir=str(tmp_path))
    )
    cold = run_sharded(rc)
    assert (cold.shard_cache_hits, cold.executed_shards) == (0, 3)
    assert not cold.merge_cache_hit

    warm = run_sharded(rc)
    assert (warm.shard_cache_hits, warm.executed_shards) == (3, 0)
    assert warm.merge_cache_hit

    key = cold.plan.keys[1]
    edited = cold.plan.with_target(
        key, papers=cold.plan.shards[1].target.papers + 2
    )
    partial = run_sharded(rc, plan=edited)
    assert (partial.shard_cache_hits, partial.executed_shards) == (2, 1)
    assert not partial.merge_cache_hit


def test_run_pipeline_refuses_sharded_configs():
    with pytest.raises(ValueError, match="run_sharded"):
        run_pipeline(RunConfig(world=WorldConfig(seed=1), shards=2))


def test_run_sharded_refuses_strict_validation():
    with pytest.raises(ValueError, match="strict"):
        run_sharded(RunConfig(world=SMALL, shards=3, validation="strict"))


def test_run_sharded_rejects_bare_worldconfig():
    with pytest.raises(TypeError, match="must be a RunConfig"):
        run_sharded(WorldConfig(seed=9, scale=0.3, venues=2))


# ------------------------------------------------------------------- CLI


def test_cli_accepts_shards_before_and_after_subcommand():
    from repro.cli import build_parser

    parser = build_parser()
    for argv in (
        ["--shards", "3", "--shard-workers", "2", "--scale", "0.5", "run"],
        ["run", "--shards", "3", "--shard-workers", "2", "--scale", "0.5"],
    ):
        args = parser.parse_args(argv)
        rc = RunConfig.from_cli(args)
        assert rc.shards == 3
        assert rc.shard_workers == 2
        assert rc.world.venues == 3


def test_serve_config_carries_sharding_through_for_query():
    from repro.serve.config import ServeConfig

    sc = ServeConfig(shards=3, shard_workers=2)
    rc = RunConfig.for_query(seed=sc.seed, scale=0.5, shards=sc.shards,
                             shard_workers=sc.shard_workers)
    assert rc.shards == 3
    assert rc.world.venues == 3
    # a CLI run with the same knobs addresses the same cache entries
    cli = RunConfig.for_query(seed=sc.seed, scale=0.5, shards=3, shard_workers=1)
    assert cli.fingerprint() == rc.fingerprint()


# --------------------------------------------------------- chunked builder


def test_chunked_builder_matches_whole_table_construction():
    b = ChunkedTableBuilder([("conference", "str"), ("n", "int")])
    b.append({"conference": ["SC", "ISC"], "n": [3, 4]})
    b.append({"conference": ["PPoPP"], "n": [5]})
    assert b.num_rows == 3
    built = b.build()
    whole = Table(
        [
            Column("conference", ["SC", "ISC", "PPoPP"], kind="str"),
            Column("n", [3, 4, 5], kind="int"),
        ]
    )
    assert built.columns == whole.columns
    for name in built.columns:
        assert list(built[name]) == list(whole[name])


def test_chunked_builder_validates_chunks():
    with pytest.raises(ValueError):
        ChunkedTableBuilder([])
    with pytest.raises(ValueError):
        ChunkedTableBuilder([("a", "int"), ("a", "str")])
    b = ChunkedTableBuilder([("a", "int"), ("b", "int")])
    with pytest.raises(KeyError):
        b.append({"a": [1]})
    with pytest.raises(ValueError):
        b.append({"a": [1, 2], "b": [1]})
    b.append({"a": [], "b": []})  # empty chunks are dropped, not errors
    assert b.num_rows == 0
    assert b.build().num_rows == 0


def test_chunked_builder_append_records():
    b = ChunkedTableBuilder([("name", "str"), ("x", "float")])
    b.append_records([{"name": "a", "x": 1.0}, {"name": "b"}])
    t = b.build()
    assert list(t["name"]) == ["a", "b"]
    assert np.isnan(t["x"][1])


def test_concat_tables_matches_pairwise_concat():
    t1 = Table([Column("k", ["a", "b"], kind="str"), Column("v", [1, 2], kind="int")])
    t2 = Table([Column("k", ["c"], kind="str"), Column("v", [3], kind="int")])
    t3 = Table([Column("k", ["d"], kind="str"), Column("v", [4], kind="int")])
    nary = concat_tables([t1, t2, t3])
    pairwise = t1.concat(t2).concat(t3)
    assert nary.columns == pairwise.columns
    for name in nary.columns:
        assert list(nary[name]) == list(pairwise[name])
    with pytest.raises(ValueError):
        concat_tables([])
    with pytest.raises(ValueError):
        concat_tables([t1, Table([Column("other", [1], kind="int")])])


# ------------------------------------------------------------------ merge

# a shard here (ARCHV02-2017) is harvested with its paper list lost: its
# author_positions, conf_authors and papers tables have no rows and no
# columns, and it is the first shard in plan order
FAULTED = RunConfig(
    world=WorldConfig(seed=2, scale=0.25), shards=4, faults=FaultConfig(rate=0.6, seed=2)
)
MERGE_CASES = {
    "small": RunConfig(world=SMALL, shards=3),
    "two-years": RunConfig(
        world=WorldConfig(seed=9, scale=0.3, venues=3, years=(2016, 2017)), shards=3
    ),
    "paper-roster": RunConfig(world=WorldConfig(seed=4, scale=0.1)),
    "faulted": FAULTED,
}
_TABLE_ATTRS = (
    "researchers", "author_positions", "conf_authors", "papers", "conferences", "role_slots",
)


@pytest.fixture(scope="module", params=sorted(MERGE_CASES))
def merge_case(request):
    """(params, inputs) of one plan's shards, run in-process."""
    rc = MERGE_CASES[request.param]
    wc, shard_cfg = _normalized_world(rc)
    plan = ShardPlan.from_config(wc)
    params = ShardParams(config=shard_cfg, policy=rc.policy, faults=rc.faults, order=plan.keys)
    inputs = {}
    for spec in plan:
        inputs.update(stage_shard(spec, params, {}))
    return params, inputs


def _dataset_digest(ds: AnalysisDataset) -> str:
    """Canonical repr walk of every column (kind and dtype included) and the assignments."""
    h = hashlib.sha256()
    for attr in _TABLE_ATTRS:
        t = getattr(ds, attr)
        h.update(repr((attr, t.columns)).encode())
        for name in t.columns:
            c = t.col(name)
            h.update(repr((name, c.kind, c.values.dtype.str, [repr(v) for v in c.values.tolist()])).encode())
    h.update(repr(list(ds.assignments.items())).encode())
    return h.hexdigest()


def _loop_merge(params: ShardParams, inputs: dict) -> dict:
    """Oracle: the loop-based stage_merge the columnar fold replaced.

    Verbatim apart from the lines marked ``# zero-row guard``, without
    which the original raises on the faulted plan.
    """
    _DEMOGRAPHICS = ("gender", "country", "region", "sector")

    def _promoted_schema(tables):
        tables = [t for t in tables if t.num_rows] or tables[:1]  # zero-row guard
        order = tables[0].columns
        schema = []
        for name in order:
            kinds = {t.col(name).kind for t in tables}
            if len(kinds) == 1:
                kind = kinds.pop()
            else:
                kind = "str" if "str" in kinds else "float"
            schema.append((name, kind))
        return schema

    def _replace_columns(base, replacements):
        return Table(
            [replacements.get(name, base.col(name)) for name in base.columns]
        )

    def _gid_array(local2gid, values, count):
        return np.fromiter(
            (-1 if r is None else local2gid[r] for r in values),
            dtype=np.int64,
            count=count,
        )

    def _take_or_none(pool, gids):
        out = np.empty(len(gids), dtype=object)
        mask = gids >= 0
        out[mask] = pool[gids[mask]]
        out[~mask] = None
        return out

    shards = [inputs[f"shard:{k}"] for k in params.order]

    gid_of = {}
    demo_of = {name: [] for name in _DEMOGRAPHICS}
    author_flag = []
    pc_flag = []
    assignments = {}

    res_tables = [s.dataset.researchers for s in shards]
    res_builder = ChunkedTableBuilder(_promoted_schema(res_tables))
    builders = {}
    gid_chunks = {
        "author_positions": [],
        "conf_authors": [],
        "role_slots": [],
    }
    paper_first_gids = []
    paper_last_gids = []
    for attr in ("author_positions", "conf_authors", "papers", "conferences", "role_slots"):
        builders[attr] = ChunkedTableBuilder(
            _promoted_schema([getattr(s.dataset, attr) for s in shards])
        )

    for sh in shards:
        rt = sh.dataset.researchers
        if not rt.num_rows:  # zero-row guard
            continue
        rids = rt["researcher_id"]
        is_author = rt["is_author"]
        is_pc = rt["is_pc"]
        gids = np.empty(len(rids), dtype=np.int64)
        new_rows = []
        for i, key in enumerate(sh.name_keys):
            g = gid_of.get(key)
            if g is None:
                g = len(gid_of)
                gid_of[key] = g
                new_rows.append(i)
                for name in _DEMOGRAPHICS:
                    demo_of[name].append(rt[name][i])
                author_flag.append(bool(is_author[i]))
                pc_flag.append(bool(is_pc[i]))
                assignment = sh.dataset.assignments.get(rids[i])
                if assignment is not None:
                    assignments[f"r{g:06d}"] = assignment
            else:
                author_flag[g] = author_flag[g] or bool(is_author[i])
                pc_flag[g] = pc_flag[g] or bool(is_pc[i])
            gids[i] = g
        local2gid = dict(zip(rids, gids))

        if new_rows:
            idx = np.array(new_rows, dtype=np.int64)
            res_builder.append({n: rt.col(n).values[idx] for n in rt.columns})

        for attr in ("author_positions", "conf_authors", "role_slots"):
            tbl = getattr(sh.dataset, attr)
            if not tbl.num_rows:  # zero-row guard
                continue
            g = np.fromiter(
                (local2gid[r] for r in tbl["researcher_id"]),
                dtype=np.int64,
                count=tbl.num_rows,
            )
            gid_chunks[attr].append(g)
            builders[attr].append({n: tbl.col(n).values for n in tbl.columns})

        pt = sh.dataset.papers
        if pt.num_rows:  # zero-row guard
            paper_first_gids.append(
                _gid_array(local2gid, pt["first_author"], pt.num_rows)
            )
            paper_last_gids.append(
                _gid_array(local2gid, pt["last_author"], pt.num_rows)
            )
            builders["papers"].append({n: pt.col(n).values for n in pt.columns})
        ct = sh.dataset.conferences
        builders["conferences"].append({n: ct.col(n).values for n in ct.columns})

    n = len(gid_of)
    rid_str = np.empty(n, dtype=object)
    rid_str[:] = [f"r{g:06d}" for g in range(n)]
    demo_arr = {}
    for name in _DEMOGRAPHICS:
        arr = np.empty(n, dtype=object)
        arr[:] = demo_of[name]
        demo_arr[name] = arr

    researchers = _replace_columns(
        res_builder.build(),
        {
            "researcher_id": Column("researcher_id", rid_str, kind="str"),
            "is_author": Column("is_author", np.array(author_flag, dtype=bool), kind="bool"),
            "is_pc": Column("is_pc", np.array(pc_flag, dtype=bool), kind="bool"),
        },
    )

    tables = {}
    for attr in ("author_positions", "conf_authors", "role_slots"):
        base = builders[attr].build()
        gid_all = (
            np.concatenate(gid_chunks[attr])
            if gid_chunks[attr]
            else np.empty(0, dtype=np.int64)
        )
        repl = {
            "researcher_id": Column("researcher_id", rid_str[gid_all], kind="str")
        }
        for name in _DEMOGRAPHICS:
            if name in base:
                repl[name] = Column(name, demo_arr[name][gid_all], kind="str")
        tables[attr] = _replace_columns(base, repl)

    papers_base = builders["papers"].build()
    fg = (
        np.concatenate(paper_first_gids)
        if paper_first_gids
        else np.empty(0, dtype=np.int64)
    )
    lg = (
        np.concatenate(paper_last_gids)
        if paper_last_gids
        else np.empty(0, dtype=np.int64)
    )
    papers = _replace_columns(
        papers_base,
        {
            "first_author": Column(
                "first_author", _take_or_none(rid_str, fg), kind="str"
            ),
            "last_author": Column(
                "last_author", _take_or_none(rid_str, lg), kind="str"
            ),
            "first_gender": Column(
                "first_gender", _take_or_none(demo_arr["gender"], fg), kind="str"
            ),
            "last_gender": Column(
                "last_gender", _take_or_none(demo_arr["gender"], lg), kind="str"
            ),
        },
    )

    dataset = AnalysisDataset(
        researchers=researchers,
        author_positions=tables["author_positions"],
        conf_authors=tables["conf_authors"],
        papers=papers,
        conferences=builders["conferences"].build(),
        role_slots=tables["role_slots"],
        assignments=assignments,
    )

    degraded = None
    if params.faults is not None:
        stats = FaultStats()
        losses = []
        for sh in shards:
            if sh.stats is not None:
                stats.merge(sh.stats)
            losses.extend(sh.losses)
        degraded = DegradedCoverage.from_parts(
            total_editions=sum(sh.total_editions for sh in shards),
            harvested_editions=sum(sh.harvested_editions for sh in shards),
            losses=losses,
            stats=stats,
        )

    merged = MergedShards(
        dataset=dataset,
        coverage=GenderResolver.coverage(assignments),
        degraded=degraded,
        shard_keys=tuple(params.order),
    )
    return {"merged": merged}


def test_columnar_merge_equals_the_loop_fold(merge_case):
    params, inputs = merge_case
    new = stage_merge(params, inputs)["merged"]
    old = _loop_merge(params, inputs)["merged"]
    assert _dataset_digest(new.dataset) == _dataset_digest(old.dataset)
    assert repr(new.coverage) == repr(old.coverage)
    assert new.degraded == old.degraded
    assert new.shard_keys == old.shard_keys


def test_merge_invariants(merge_case):
    params, inputs = merge_case
    shards = [inputs[f"shard:{k}"] for k in params.order]
    ds = stage_merge(params, inputs)["merged"].dataset
    rt = ds.researchers
    known = set(rt["researcher_id"])

    # identity: one merged researcher per distinct name key, in first-seen order
    keys = list(dict.fromkeys(k for s in shards for k in s.name_keys))
    assert rt.num_rows == len(keys) == len(known)

    # every reference resolves to a merged researcher
    for attr in ("author_positions", "conf_authors", "role_slots"):
        assert set(getattr(ds, attr)["researcher_id"]) <= known
    for end in ("first_author", "last_author"):
        assert {r for r in ds.papers[end] if r is not None} <= known

    # role flags are the OR over occurrences
    for flag in ("is_author", "is_pc"):
        expected = dict.fromkeys(keys, False)
        for s in shards:
            if s.name_keys:
                for key, v in zip(s.name_keys, s.dataset.researchers[flag]):
                    expected[key] = expected[key] or bool(v)
        assert list(rt[flag]) == [expected[k] for k in keys]

    # conservation: per-table rows sum over shards
    for attr in _TABLE_ATTRS[1:]:
        assert getattr(ds, attr).num_rows == sum(
            getattr(s.dataset, attr).num_rows for s in shards
        )
    assert set(ds.assignments) <= known


def test_shard_payload_shares_assignment_values(merge_case):
    params, inputs = merge_case
    for key in params.order:
        shard: ShardResult = pickle.loads(pickle.dumps(inputs[f"shard:{key}"]))
        # genderize answers are per call; every other value is one object
        shared = [
            a for a in shard.dataset.assignments.values()
            if a.method is not InferenceMethod.GENDERIZE
        ]
        assert shared
        assert len({id(a) for a in shared}) == len(set(shared))


def test_stack_skips_zero_row_tables():
    ints = Table([Column("year", [2017, 2017], kind="int")])
    empty_cols = Table([Column("year", [], kind="str")])
    no_cols = Table.from_records([])
    assert _stack([no_cols, empty_cols, ints]).col("year").kind == "int"
    assert list(_stack([empty_cols, ints, ints])["year"]) == [2017] * 4
    # every table empty: the first shard's stands for all
    assert _stack([no_cols, empty_cols]).columns == []
    assert _stack([empty_cols, no_cols]).columns == ["year"]


def test_merge_of_shards_that_lost_every_edition():
    def empty_shard(key):
        empty = Table.from_records([])
        dataset = AnalysisDataset(
            researchers=empty,
            author_positions=empty,
            conf_authors=empty,
            papers=empty,
            conferences=empty,
            role_slots=Table.from_records([], columns=["researcher_id", "year"]),
        )
        return ShardResult(key=key, conference=key[:-5], year=2017, dataset=dataset,
                           name_keys=(), total_editions=1, harvested_editions=0)

    keys = ("A-2017", "B-2017")
    params = ShardParams(config=WorldConfig(), policy=None, faults=None, order=keys)
    merged = stage_merge(params, {f"shard:{k}": empty_shard(k) for k in keys})["merged"]
    assert merged.dataset.researchers.num_rows == 0
    assert merged.dataset.role_slots.columns == ["researcher_id", "year"]
    assert merged.dataset.assignments == {}


@pytest.mark.faults
def test_sharded_run_survives_a_shard_with_a_lost_paper_list():
    res = run_sharded(FAULTED)
    assert isinstance(res.degraded, DegradedCoverage)
    assert res.degraded.harvested_editions == res.degraded.total_editions == 4
    ds = res.dataset
    for attr in _TABLE_ATTRS[1:]:
        assert getattr(ds, attr).col("year").kind == "int", attr
    assert ds.author_positions.col("position").kind == "int"
    assert ds.author_positions.col("is_first").kind == "bool"
