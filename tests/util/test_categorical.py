"""``Categorical`` draws exactly what ``Generator.choice(n, p=p)`` draws.

Twin generators with the same seed run the fast path and ``choice`` side
by side: every draw must return the same index *and* leave both
generators in the same state (checked by comparing the next ``random()``),
because the world build interleaves these draws with others on the same
named stream (METHODOLOGY §17).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.names.bank import NameBank
from repro.names.corpora import CLUSTERS
from repro.synth.careers import BAND_SHARES
from repro.util.rng import Categorical

STATELESS_CLUSTER_MIX = [0.55, 0.30, 0.10, 0.05]


def _assert_twin(p, draws: int = 300, seed: int = 0) -> None:
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    cat = Categorical(p)
    for _ in range(draws):
        assert cat.draw(fast) == int(slow.choice(len(p), p=p))
    assert fast.random() == slow.random()


def _old_bank_vectors():
    """Every probability vector the pre-``Categorical`` NameBank passed to choice."""
    vectors = {}
    for cluster, data in CLUSTERS.items():
        rows = data["forenames"]
        w = np.array([weight for _, _, weight in rows], dtype=float)
        f = np.array([share for _, share, _ in rows], dtype=float)
        for g, wg in (("F", w * f), ("M", w * (1.0 - f))):
            vectors[("forename", cluster, g)] = wg / wg.sum()
        for g in ("F", "M"):
            pool = [r for r in rows if (r[1] >= 0.92 if g == "F" else r[1] <= 0.08)] or rows
            wc = np.array([weight for _, _, weight in pool], dtype=float)
            vectors[("confident", cluster, g)] = wc / wc.sum()
            amb = [r for r in rows if 0.32 < r[1] < 0.68]
            if not amb:
                amb = [min(rows, key=lambda r: abs(r[1] - 0.5))]
            share = np.array([s for _, s, _ in amb], dtype=float)
            wa = np.array([weight for _, _, weight in amb], dtype=float)
            wa = wa * (share if g == "F" else (1.0 - share))
            if wa.sum() <= 0:
                wa = np.ones(len(amb))
            vectors[("ambiguous", cluster, g)] = wa / wa.sum()
    return vectors


BANK_VECTORS = _old_bank_vectors()


@pytest.mark.parametrize("seed, key", list(enumerate(sorted(BAND_SHARES))))
def test_band_shares_twin(seed, key):
    _assert_twin(np.asarray(BAND_SHARES[key]), draws=1000, seed=seed)


@pytest.mark.parametrize("key", sorted(BANK_VECTORS), ids=lambda k: "-".join(k))
def test_bank_vectors_twin(key):
    _assert_twin(BANK_VECTORS[key], draws=200, seed=7)


def test_stateless_cluster_mix_twin():
    _assert_twin(STATELESS_CLUSTER_MIX, draws=1000, seed=3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
    st.integers(0, 2**32 - 1),
)
def test_random_vectors_twin(weights, seed):
    w = np.asarray(weights)
    _assert_twin(w / w.sum(), draws=50, seed=seed)


def test_degenerate_vectors_twin():
    _assert_twin([1.0])
    _assert_twin([0.0, 1.0, 0.0])
    _assert_twin(np.array([0.25, 0.25, 0.5], dtype=np.float32))


def test_name_bank_draws_match_old_choice_bodies():
    """The bank's samplers keep the draw sequence of the per-call ``choice`` bodies."""
    bank = NameBank()
    for (kind, cluster, g), p in BANK_VECTORS.items():
        rows = CLUSTERS[cluster]["forenames"]
        if kind == "forename":
            pool, sample = rows, bank.sample_forename
        elif kind == "confident":
            pool = [r for r in rows if (r[1] >= 0.92 if g == "F" else r[1] <= 0.08)] or rows
            sample = bank.sample_confident_forename
        else:
            pool = [r for r in rows if 0.32 < r[1] < 0.68] or [
                min(rows, key=lambda r: abs(r[1] - 0.5))
            ]
            sample = bank.sample_ambiguous_forename
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(50):
            assert sample(g, cluster, fast) == pool[int(slow.choice(len(pool), p=p))][0]
        assert fast.random() == slow.random()


@pytest.mark.parametrize(
    "p",
    [
        [],
        [[0.5, 0.5]],
        [0.5, float("nan")],
        [1.5, -0.5],
        [0.2, 0.2],
        [0.6, 0.6],
        [float("inf"), 0.0],
    ],
    ids=["empty", "2d", "nan", "negative", "under", "over", "inf"],
)
def test_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError) as slow:
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError) as fast:
        Categorical(p)
    assert str(fast.value).split(".")[0] == str(slow.value).split(".")[0]


def test_float32_tolerance_matches_choice():
    # within float32's sqrt(eps) of 1 but outside float64's: choice accepts
    p = np.array([0.5, 0.5001], dtype=np.float32)
    np.random.default_rng(0).choice(2, p=p)
    Categorical(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=p.astype(np.float64))
    with pytest.raises(ValueError):
        Categorical(p.astype(np.float64))
