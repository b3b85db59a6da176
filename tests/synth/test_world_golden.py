"""Golden digests pinning generated worlds across code changes.

Every world is a pure function of its config, and every named rng stream
must see the same draws in the same order no matter how the generator
code is written (METHODOLOGY §17).  These digests were recorded before
the stream-preserving hot-path rewrites and must never move unless a
change *declares* a new world: a faster sampler that drifts by one draw
changes every world after it, which these tests catch where the
calibration tests (statistical tolerances) would not.

The digest is a SHA-256 over the ``repr`` of a canonical structural walk
(dataclass fields, object attributes, dict items in insertion order,
array dtype/shape/values) — not pickle bytes, which depend on protocol
and memo layout rather than on the world itself.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.synth import WorldConfig, build_world
from repro.synth.shards import ShardPlan
from repro.tabular import Table

SHARD_CONFIG = WorldConfig(seed=5, scale=0.5, years=(2016, 2017), venues=2)


def _canon(obj):
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return ("float", repr(obj))
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.name)
    if isinstance(obj, np.generic):
        return ("np", obj.dtype.str, repr(obj.item()))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, _canon(obj.tolist()))
    if isinstance(obj, Table):
        return (
            "Table",
            [(c, obj.col(c).kind, _canon(obj.col(c).to_list())) for c in obj.columns],
        )
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_canon(v) for v in obj])
    if isinstance(obj, (set, frozenset)):
        return (type(obj).__name__, sorted(repr(_canon(v)) for v in obj))
    if isinstance(obj, dict):
        return ("dict", [(_canon(k), _canon(v)) for k, v in obj.items()])
    if dataclasses.is_dataclass(obj):
        return (
            type(obj).__name__,
            [(f.name, _canon(getattr(obj, f.name))) for f in dataclasses.fields(obj)],
        )
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, [(k, _canon(v)) for k, v in sorted(vars(obj).items())])
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical_digest(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode("utf-8")).hexdigest()


def _shard_world(spec):
    from repro.synth.population import plan_from_targets

    return build_world(
        SHARD_CONFIG,
        targets=[spec.target],
        year=spec.year,
        rng_path=("shard", spec.conference, spec.year),
        population_plan=plan_from_targets([spec.target], author_repeat=1.0, pc_repeat=1.0),
    )


def _shard(i: int):
    return ShardPlan.from_config(SHARD_CONFIG).shards[i]


WORLD_GOLDEN = {
    "paper-seed5": "a8ba4362efbccb13c9fa7e71bcc4a369200c666fe1eeb1cab4734381d0a42e55",
    "paper-seed5-scale0.1": "f3ed5fe7f09aff170e058a4519cabee30eafebe645a404f91b19327c9f7dba5a",
    "shard0": "6469ff97eee5adfe7978c6375ac5558014f3f94b0503ac6dcd282bfbf9e91816",
    "shard3": "9eb5ef9c7105c02d9846bf79c4bc0847f4fb9b4d7e5b4f9456b83cf5f607edc0",
}
SHARD_DATASET_GOLDEN = "5347b0f6e792a6d49d72af1fd20702309d888cbffd1fb846b76abc72d7932c17"


@pytest.mark.parametrize(
    "label, make",
    [
        ("paper-seed5", lambda: build_world(WorldConfig(seed=5))),
        ("paper-seed5-scale0.1", lambda: build_world(WorldConfig(seed=5, scale=0.1))),
        ("shard0", lambda: _shard_world(_shard(0))),
        ("shard3", lambda: _shard_world(_shard(3))),
    ],
)
def test_world_digest_pinned(label, make):
    assert canonical_digest(make()) == WORLD_GOLDEN[label]


def test_shard_dataset_digest_pinned():
    from repro.pipeline.sharded import ShardParams, stage_shard

    spec = _shard(1)
    params = ShardParams(config=SHARD_CONFIG, policy=None, faults=None, order=(spec.key,))
    result = stage_shard(spec, params, {})[f"shard:{spec.key}"]
    payload = (result.key, result.name_keys, result.dataset)
    assert canonical_digest(payload) == SHARD_DATASET_GOLDEN


def test_canonical_digest_sees_one_value_change():
    world = build_world(WorldConfig(seed=5, scale=0.1))
    before = canonical_digest(world)
    person = next(p for p in world.registry.people.values() if p.career_citations)
    person.career_citations[0] += 1
    assert canonical_digest(world) != before
