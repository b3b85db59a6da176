"""Merge oracles: what ``stage_merge`` must give, checked without contracts.

(a) A one-shard plan has nothing to fold: its merged dataset pickles
byte-equal to the dataset that shard's own ``stage_shard`` built.
(b) The merge folds in plan order, so the order of its input mapping
(the order shard nodes happened to finish in) cannot reach its output.
Worker-count independence is covered in ``tests/test_sharded.py``.
"""

import itertools
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pipeline.config import RunConfig
from repro.pipeline.sharded import ShardParams, _normalized_world, stage_merge, stage_shard
from repro.synth import WorldConfig
from repro.synth.shards import ShardPlan

pytestmark = pytest.mark.scale


def _shards(world: WorldConfig) -> tuple[ShardParams, dict]:
    """Every shard node's output for ``world``'s plan, in plan order."""
    wc, shard_cfg = _normalized_world(RunConfig(world=world))
    plan = ShardPlan.from_config(wc)
    params = ShardParams(config=shard_cfg, policy=None, faults=None, order=plan.keys)
    inputs: dict = {}
    for spec in plan:
        inputs.update(stage_shard(spec, params, {}))
    return params, inputs


def _merged_bytes(params: ShardParams, inputs: dict) -> bytes:
    return pickle.dumps(stage_merge(params, inputs)["merged"])


def _one_shard_merge_is_the_shard(world: WorldConfig) -> None:
    params, inputs = _shards(world)
    [shard] = inputs.values()
    merged = stage_merge(params, inputs)["merged"]
    assert pickle.dumps(merged.dataset) == pickle.dumps(shard.dataset)


def _merge_ignores_input_order(params: ShardParams, inputs: dict, orders) -> None:
    expected = _merged_bytes(params, inputs)
    for order in orders:
        shuffled = {name: inputs[name] for name in order}
        assert _merged_bytes(params, shuffled) == expected


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_one_shard_merge_equals_the_shards_own_dataset(seed):
    _one_shard_merge_is_the_shard(
        WorldConfig(seed=seed, scale=0.5, years=(2017,), venues=1)
    )


def test_merge_is_byte_identical_for_every_input_order():
    params, inputs = _shards(WorldConfig(seed=5, scale=0.2, years=(2017,), venues=3))
    assert len(inputs) == 3
    _merge_ignores_input_order(params, inputs, itertools.permutations(inputs))


@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(1, 10_000),
    scale=st.sampled_from([0.1, 0.2, 0.3]),
    venues=st.integers(1, 3),
    years=st.sampled_from([(2017,), (2016, 2017)]),
    data=st.data(),
)
def test_merge_oracles_hold_for_small_plans(seed, scale, venues, years, data):
    _one_shard_merge_is_the_shard(
        WorldConfig(seed=seed, scale=scale, years=years[-1:], venues=1)
    )
    params, inputs = _shards(
        WorldConfig(seed=seed, scale=scale, years=years, venues=venues)
    )
    order = data.draw(st.permutations(list(inputs)), label="input order")
    _merge_ignores_input_order(params, inputs, [order, list(reversed(inputs))])
