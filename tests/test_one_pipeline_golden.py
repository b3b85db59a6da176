"""Golden digests: every execution path still computes the same bodies.

The monolithic pipeline, the cached engine run and the sharded run all
compose the stage bodies of :mod:`repro.engine.stages`.  The digests
below were recorded when the stage sequence still had three copies (a
linear runner, the engine stages and a hand-written shard body), so a
pass here means the one remaining copy reproduces all three, byte for
byte:

- :meth:`RunConfig.fingerprint` for four representative configs — the
  ledger's like-for-like history, serve ETags and serve chaos draws are
  keyed on it;
- ledger bodies of a cached engine run, cold and warm;
- ledger bodies of two sharded plans at one and two shard workers;
- ledger bodies of uncached ``engine=None`` runs over three seeds and
  three contract/fault modes.  These were recorded from the engine path
  with ``meta.engine`` false; their ``scientific`` sections equal the
  ones the deleted linear runner produced.
"""

from dataclasses import replace

import pytest

from repro.api import EngineConfig, FaultConfig, ObsContext, RunConfig, WorldConfig
from repro.api import run_pipeline, run_sharded
from repro.cli import build_parser
from repro.obs.ledger import body_digest, build_run_record

FAULTS = FaultConfig(rate=0.25, seed=3)
SMALL = WorldConfig(seed=9, scale=0.3, venues=3)
FAULTED = RunConfig(
    world=WorldConfig(seed=2, scale=0.25), shards=4, faults=FaultConfig(rate=0.6, seed=2)
)
MODES = {
    "plain": {},
    "repair": {"validation": "repair"},
    "faults+repair": {"faults": FAULTS, "validation": "repair"},
}


def fingerprint_configs() -> dict[str, RunConfig]:
    return {
        "for_query": RunConfig.for_query(7, 0.1),
        "cli_default": RunConfig.from_cli(build_parser().parse_args(["run"])),
        "sharded": RunConfig(world=SMALL, shards=3, shard_workers=2),
        "faults+repair": RunConfig(
            world=WorldConfig(seed=7, scale=0.25), faults=FAULTS, validation="repair"
        ),
    }


def cached_config(cache_dir: str) -> RunConfig:
    return RunConfig(
        world=WorldConfig(seed=7, scale=0.25),
        faults=FAULTS,
        validation="repair",
        obs=ObsContext(seed=7),
        engine=EngineConfig(cache_dir=cache_dir),
    )


def sharded_configs() -> dict[str, RunConfig]:
    plans = {"small": RunConfig(world=SMALL, shards=3), "faulted": FAULTED}
    return {
        f"{name}/w{workers}": replace(
            rc, shard_workers=workers, obs=ObsContext(seed=rc.world.seed)
        )
        for name, rc in plans.items()
        for workers in (1, 2)
    }


def uncached_configs() -> dict[str, RunConfig]:
    return {
        f"{seed}/{mode}": RunConfig(
            world=WorldConfig(seed=seed, scale=0.25), obs=ObsContext(seed=seed), **kw
        )
        for seed in (7, 11, 23)
        for mode, kw in MODES.items()
    }


def digest(result, rc: RunConfig) -> str:
    return body_digest(build_run_record(result, config=rc, command="golden").body)


FINGERPRINTS = {
    "for_query": "595d694993b29fc4e2697f9b1090a1a1f38792bca3d99113de1740b5fb47bd50",
    "cli_default": "fdd1300283c8fbc9b2e776e9515177a4272c4d941201c028047f810dc1eb54a7",
    "sharded": "6ad26f27d256831dd0d9fd0393a3efe3aa34d83e2ae4a200990eebbae817b3a2",
    "faults+repair": "8d0e1ca05e3171df5c0b62b5810c478b6175d2a280e818a9af4459a1d35d4130",
}
CACHED = {
    "cold": "55db5100002244d2f8ea731d3f785b3412a8791506ecdb1749d111db836eb2f7",
    "warm": "1920822abec0815d1b08748b8d1e850c17b2924dcda11aa368404343afc7c94e",
}
SHARDED = {
    "small/w1": "4e9629bc0f823edcaf70abbe36a12acf99dbea9bfdafd0f5244a6a767f2d3709",
    "small/w2": "4e9629bc0f823edcaf70abbe36a12acf99dbea9bfdafd0f5244a6a767f2d3709",
    "faulted/w1": "dc9690cff9c4f4a7e2a5a6903cefe0b93760966ab44f6dcba2eb6bc9c9dcdc2b",
    "faulted/w2": "dc9690cff9c4f4a7e2a5a6903cefe0b93760966ab44f6dcba2eb6bc9c9dcdc2b",
}
UNCACHED = {
    "7/plain": "965e0630b7b14a38445c03e09ba3f43cd9f2068bfb8f463b88d8164660d3d2c8",
    "7/repair": "ee7c1675c4f45f0eefce526ccdce39dd2ce1013033769025e5e54c835dc41964",
    "7/faults+repair": "34db52fed8b0ae9e0c38cae84fe83fbbf2787b5843f834ed06f545e51c677dad",
    "11/plain": "9f8a444d87210aefd5426482d76eedb59574d88572ded7022ada93af01c9c679",
    "11/repair": "a987beb0c04eb1707024c204a5cffb663ef33a43a86b89f2fd3731c988197147",
    "11/faults+repair": "14f45f1f4a8d0360d3415c6adda42a335d096fd74bfbcef902275c53d8d9e918",
    "23/plain": "8d361bc1059a1bde78249a3bee8639e7ae5da29cee147c9bcf58a9c05c778cea",
    "23/repair": "47b4d35fafadad52370e9d3e8577b053b11e0c028e6409ef86014156bc806b3b",
    "23/faults+repair": "6befd65a0ab03042ff236bfb2df3540893f3739944d4dd7ab7d25797392076da",
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_run_config_fingerprints_unchanged(name):
    assert fingerprint_configs()[name].fingerprint() == FINGERPRINTS[name]


@pytest.mark.engine
def test_cached_engine_run_bodies_unchanged(tmp_path):
    for phase in ("cold", "warm"):
        rc = cached_config(str(tmp_path))
        assert digest(run_pipeline(rc), rc) == CACHED[phase], phase


@pytest.mark.scale
@pytest.mark.parametrize("name", sorted(SHARDED))
def test_sharded_run_bodies_unchanged(name):
    rc = sharded_configs()[name]
    assert digest(run_sharded(rc), rc) == SHARDED[name]


@pytest.mark.parametrize("name", sorted(UNCACHED))
def test_uncached_run_bodies_unchanged(name):
    rc = uncached_configs()[name]
    assert rc.engine is None
    assert digest(run_pipeline(rc), rc) == UNCACHED[name]
