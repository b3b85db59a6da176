"""Golden digests of every experiment artifact's text.

Each digest is SHA-256 over the UTF-8 text an experiment builder
returns (what ``repro experiment <id>`` prints and what the benchmark
digests).  They pin the science of the analysis layer byte for byte, so
a rewrite of a report -- memoization, grouped kernels, columnar
re-gendering -- that moves any printed cell fails here.

Three results are pinned: two paper-roster runs (seed 7 at full scale,
seed 11 at scale 0.25) and a 4-venue x 2-year sharded run, on which all
17 experiments must run.  Each digest is checked three ways: with no
cache, on a cold artifact cache (the experiment executes and stores its
entry) and on the same cache warm (the entry is read back).  Record a
new digest only together with a declared change to the science.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.api import EngineConfig, RunConfig, WorldConfig, run_pipeline
from repro.report.experiments import EXPERIMENTS, run_experiment

CONFIGS = {
    "paper-7": RunConfig(world=WorldConfig(seed=7, scale=1.0), validation="repair"),
    "paper-11": RunConfig(world=WorldConfig(seed=11, scale=0.25), validation="repair"),
    "sharded": RunConfig(
        world=WorldConfig(seed=5, scale=0.25, venues=4, years=(2016, 2017)), shards=4
    ),
}

GOLDEN = {
    "paper-7": {
        "T1": "a0601d46cbd2293622e77d549be0919f21a661789882457c30f12fd0ac642e3a",
        "T2": "5b815f71fdac9046265288914705b8537b93d22b826614128329f739925c4a61",
        "T3": "f7f88a49b87b3bc3d1208f55b5e83a9a06223f5fcb1dad70616e9bf3ccce653c",
        "F1": "f08c279fc92d26019990a0c175c9728e14dd9aa56065829d404d8d4454025b23",
        "F2": "e7027c1f85c5d7b8ec86155ca8ec645656975bf05e505dda89da8aead7f20d24",
        "F3": "f4d3fd68b708ce30c284b7ade0e6b8a14d48988ae2623b4e56ebcab04c342be1",
        "F4": "7cdda2a205da802924f21ff266abc333eed1423d75587ebc0a5064c8186e8e25",
        "F5": "3eabc417b3c55e3e6e1ce6ba26a4b484850ec1673003a430c9e0e2b4e2803ef1",
        "F6": "6a81681a9cd5d6013ce7b2a390ff447998f377f0d6f11595b113305938b6a474",
        "F7": "22f216095e8abbdb9b882da427f78b2b1a03be06765845eb422d7551ab92a8e0",
        "F8": "c2aa4fbeeed45e6f86e560980b1fc28386024e0956a6b21c09ff0fc82c080999",
        "S3.1": "605d2575146d85c5f8f6faf85a739aef554fa049448ecd912ea318cc649ff5c1",
        "S3.3": "d00c90e61060c86d2b9ac84fdc778165cc84e68757989e1529972da9d2e4bcac",
        "S3.4": "6ca3a690506163da3bde4417afe590fd60940b3fa9ce5592f4db2a37df21f8db",
        "S4.1": "bb91ad61a1b7cb973c1f055b5c7b8d0a6670735f88ad6591dd6a582843de9745",
        "SENS": "7320d8f89dec60cb6f49e513469d5632609ac1024c7755c0939964c4cd63351e",
        "POLICY": "3803104136a860703ac42ddaa9be53877fa67dd8efaf2a3fe6a35660b8354936",
    },
    "paper-11": {
        "T1": "e63ceefcaa9a3092642b41c0b30d8168d0097fda206cb47f8205a92b16db659f",
        "T2": "ea26aa129b3d305ab8e0804286fb823bcdf71d72f5f6cf6144634c56d1977eb2",
        "T3": "e4a44ff01e2c313cb6c2bb7c0f625d6ce4569dde1e166210dbf9b800ff9885dd",
        "F1": "a637b2a6a9c9b777217c74556076d49d1932c8ca2b7e18f133155b7d3ee33954",
        "F2": "1ba7a883897cf8f865c973176ae64c3264f2f98b4892860abbefe76cb5aeca51",
        "F3": "f6497dc3741386bffe07280aeea1809ab65bb0ad301126a82288938726defd71",
        "F4": "80d27bc336f47c83016bc1bc99ca7afcf4952d3aece631d9a8d451eb2f4b6136",
        "F5": "aa31c4dff29c9f0d6aa0cb015f3e2568c265457f72bebfd4f107ea47cda415f2",
        "F6": "d7aa4d41732a2ffd106e897def9135d8c1cbbc88e54d84a82470e3b610272369",
        "F7": "c8ad900a9deaaa01c82f82f898fea3901c23629fca7930d8b1972d5d998e40fc",
        "F8": "db7499c4ee361163bff820ff5b3b6aa16c2ff71f4a7f3a5b6d372109151ae822",
        "S3.1": "2e156475b3fd972af246550d5150aed46a75961c8f89bc5edd02ff96edd3f2b2",
        "S3.3": "24166982e93e3bfbf130d461df80ab4846da38b0cbac2672bffb4aed3f60e548",
        "S3.4": "e6cbdf8996bcb1a8023b7957e6a2b787bf4d81635c1966bfa2cda2f57284d302",
        "S4.1": "653f41c530a65d5b94a330ca855bca5fcd141b30c3b58546374a1bf8ca670fc5",
        "SENS": "7114ca44e3c620acd5f254e7d2fd335800fea4d3a9c80d8d6caf2b6a79233fdb",
        "POLICY": "24dd68e283afc2812ceea4053f2bea52411a5a207828dd5a5aefcdcf6910fa6c",
    },
    "sharded": {
        "T1": "c07977d04df3a870f7229a4eca44d527c55fa09a98bade7390f39fbf4bd95cb3",
        "T2": "0a554c109517659b9eca7383d519ff3e04ad0525cad7a3fdaf95e7415da4cfce",
        "T3": "6be0722a8d26c3f777d8d87b7f4e39fd1792b2c870b797f923e49c86f0d2b766",
        "F1": "b092e28ff969132dd96b8b320fdcd1095ece126db79a6933d3ce0f06724345d6",
        "F2": "789206d5e1829668e75cc77870af8069d0e03a0401173831a6e77796b8f71728",
        "F3": "61823e6dc1cf897f8ef9a04ac0d263668a0c54044344cfb29146a17a4036d3bb",
        "F4": "30d66f980ff8bf8667aff44574a3100903031a52bd1f3bc189d996cdfc75afa1",
        "F5": "a8abd8e8172702167ee90834c1e6de4a8b61f2c9cddff140e89e360aeebd5b66",
        "F6": "26b8c3e9b6ee3f3b79cd1dc050d24605ba95e7547a61548287648b23238b084f",
        "F7": "fec1c8407f5a25f897b833b3b35f1f228e64dd70f16e194889fbec808687ea36",
        "F8": "e5db1211881497672d0102bf607e7fbe9404b536cf198fcd74c88373087170a2",
        "S3.3": "c3325cda438c2752219ec44cdee13df31fc04a4f3d2d92474c62fd1bbbfcc5a8",
        "S4.1": "f0a09fe9724bf15849801359cf96bf177d48e83a6124b194c6f9653fb6fc4a92",
        "SENS": "c334eab0a0e5fa85bfb6ded002362cd15e2f87d99e208689eeb2e92b791a109d",
        # declared change: diversity-chair policy is decided per edition,
        # so a venue's chairless years no longer count as "policy" (was
        # 87981a6d5beb29064caeaa75204374cb0b4a7837f26c36435195591da7669b52)
        "POLICY": "b1e651350a79b6afd415cd7cb8712e14ea625510732d63e6ee4e556a4586e7c8",
        # these two raised on a sharded result before (no SC in the roster,
        # no timeline on the sharded world stand-in)
        "S3.1": "ffe31d1f4335579503ce495d25e04cdae9c8a6713aa73681b0fe3edbf65dc16d",
        "S3.4": "0d8803a4f35e262a052d652ab48240bf38d2e835767c440d59712d35ee94153e",
    },
}

#: no cache; a fresh cache; the same cache again (cold must run first)
MODES = ("none", "cold", "warm")


@pytest.fixture(scope="session")
def experiment_outputs(tmp_path_factory):
    """``outputs_of(name, mode)``: every experiment's ``(payload, text)``.

    Each (config, mode) pair runs the pipeline and all 17 experiments
    once per session; ``cold`` and ``warm`` share one cache directory
    per config.
    """
    root = tmp_path_factory.mktemp("artifact-cache")
    outputs: dict = {}

    def outputs_of(name: str, mode: str) -> dict:
        if (name, mode) not in outputs:
            if mode == "warm":
                outputs_of(name, "cold")
            rc = CONFIGS[name]
            if mode != "none":
                rc = replace(rc, engine=EngineConfig(cache_dir=str(root / name)))
            result = run_pipeline(rc)
            outputs[(name, mode)] = {e: run_experiment(e, result) for e in EXPERIMENTS}
        return outputs[(name, mode)]

    return outputs_of


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_experiment_is_pinned(name):
    assert sorted(GOLDEN[name]) == sorted(EXPERIMENTS)


@pytest.mark.parametrize(
    "name, exp_id", [(n, e) for n in GOLDEN for e in GOLDEN[n]]
)
def test_artifact_text_pinned(name, exp_id, experiment_outputs):
    for mode in MODES:
        text = experiment_outputs(name, mode)[exp_id][1]
        assert text_digest(text) == GOLDEN[name][exp_id], mode
