"""Tests for the career model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scholar import h_index
from repro.synth.careers import (
    BAND_SHARES,
    CareerModel,
    gs_reported_publications,
    s2_reported_publications,
)


@pytest.fixture
def model():
    return CareerModel(np.random.default_rng(0))


class TestBands:
    def test_shares_sum_to_one(self):
        for shares in BAND_SHARES.values():
            assert sum(shares) == pytest.approx(1.0)

    def test_women_authors_more_novice(self):
        f = BAND_SHARES[("author", "F")]
        m = BAND_SHARES[("author", "M")]
        assert f[0] > m[0]       # more novices
        assert f[2] < m[2]       # fewer experienced

    def test_pc_more_experienced_than_authors(self):
        for g in ("F", "M"):
            assert BAND_SHARES[("pc", g)][2] > BAND_SHARES[("author", g)][2]

    def test_draw_band_distribution(self, model):
        draws = [model.draw_band("author", "F") for _ in range(3000)]
        novice_share = draws.count("novice") / len(draws)
        assert abs(novice_share - BAND_SHARES[("author", "F")][0]) < 0.04

    def test_unknown_key(self, model):
        with pytest.raises(KeyError):
            model.draw_band("editor", "F")


class TestH:
    def test_band_ranges(self, model):
        for _ in range(300):
            assert 0 <= model.draw_h("novice") < 13
            assert 13 <= model.draw_h("mid-career") <= 18
            assert model.draw_h("experienced") >= 19

    def test_unknown_band(self, model):
        with pytest.raises(ValueError):
            model.draw_h("emeritus")


class TestCareerConstruction:
    def test_h_index_exact(self, model):
        """The headline invariant: generated vectors realize the target h."""
        for _ in range(200):
            career = model.draw_career("author", "M")
            assert h_index(career.vector) == career.h_index

    def test_pubs_at_least_h(self, model):
        for _ in range(100):
            c = model.draw_career("pc", "F")
            assert c.past_publications >= c.h_index
            assert len(c.vector) == c.past_publications

    def test_zero_h_all_zero_citations(self):
        m = CareerModel(np.random.default_rng(1))
        zeros = [c for c in (m.draw_career("author", "F") for _ in range(300)) if c.h_index == 0]
        assert zeros, "novice draws should include h=0 researchers"
        for c in zeros:
            assert all(v == 0 for v in c.vector)

    def test_right_skewed_distribution(self, model):
        pubs = [model.draw_career("pc", "M").past_publications for _ in range(500)]
        assert np.mean(pubs) > np.median(pubs)  # right skew


class TestReportedCounts:
    def test_gs_mild_noise(self):
        rng = np.random.default_rng(2)
        vals = [gs_reported_publications(100, rng) for _ in range(300)]
        assert 0.8 < np.mean(vals) / 100 < 1.4
        assert gs_reported_publications(0, rng) == 0

    def test_s2_heavy_noise(self):
        rng = np.random.default_rng(3)
        true = np.array([int(x) for x in rng.lognormal(3, 1, 400)]) + 1
        s2 = np.array([s2_reported_publications(int(t), rng) for t in true])
        r = np.corrcoef(true, s2)[0, 1]
        assert r < 0.75  # heavily decorrelated (paper's r = 0.334)
        assert (s2 >= 0).all()
