"""Research-career model: experience bands, publications, h-index.

Fig. 6 stratifies researchers by h-index into novice (h < 13),
mid-career (13–18), and experienced (> 18), and reports that 44.8% of
female authors vs 36.4% of male authors are novices, with PC members
generally more experienced than authors.  We generate careers top-down
from those band shares:

1. draw a band from the (role, gender) band distribution;
2. draw a target h-index within the band (geometric-ish within-band
   spread so the pooled distribution is right-skewed like Figs. 3–5);
3. synthesize a publication count and a career citation vector whose
   Hirsch index is *exactly* the target h (construction below), because
   the analysis recomputes h from the vector.

The citation-vector construction places ``h`` papers at ≥ h citations
(h + geometric overshoot) and the remaining papers strictly below h,
with a decaying profile — so ``h_index(vector) == h`` by construction,
which the property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scholar.metrics import h_index as compute_h
from repro.util.rng import Categorical

__all__ = ["BAND_SHARES", "CareerModel", "Career"]


#: Band shares per (role_kind, gender): (novice, mid, experienced).
#: Author values target Fig. 6's 44.8% / 36.4% novice shares; PC values
#: encode "PC members generally have more experience than authors,
#: especially among women" (§5.1) — derived.
#: NOTE: these are *pre-selection* shares.  Google Scholar coverage rises
#: with experience (novices are less likely to have a profile), so the
#: observed band mix among GS-linked researchers — which is what Fig. 6
#: measures — shifts toward the experienced end.  The values below are
#: solved so that, after the coverage model (novice 0.47 / mid 0.70 /
#: experienced 0.84), the *observed* novice shares land on the paper's
#: 44.8% (women) and 36.4% (men) among authors.
#: A further correction: researchers who are both authors and PC members
#: draw "pc" careers, which dilutes the observed author novice share, so
#: the author values here overshoot the paper's targets to compensate
#: (verified empirically by the full-scale integration tests).
BAND_SHARES: dict[tuple[str, str], tuple[float, float, float]] = {
    ("author", "F"): (0.660, 0.240, 0.100),
    ("author", "M"): (0.550, 0.280, 0.170),
    ("pc", "F"): (0.150, 0.350, 0.500),
    ("pc", "M"): (0.170, 0.330, 0.500),
}

_BANDS = ("novice", "mid-career", "experienced")

# validated once; each draw is one rng.random(), as rng.choice(3, p=...)
_BAND_DRAWS = {key: Categorical(shares) for key, shares in BAND_SHARES.items()}


@dataclass(frozen=True)
class Career:
    """One researcher's pre-2017 track record."""

    band: str
    h_index: int
    past_publications: int
    citation_vector: tuple[int, ...]


class CareerModel:
    """Draws careers conditioned on role kind and gender."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    # ------------------------------------------------------------- drawing

    def draw_band(self, role_kind: str, gender: str) -> str:
        draws = _BAND_DRAWS.get((role_kind, gender))
        if draws is None:
            raise KeyError(f"no band shares for ({role_kind!r}, {gender!r})")
        return _BANDS[draws.draw(self._rng)]

    def draw_h(self, band: str) -> int:
        """Target h-index within a band.

        Novice h ∈ [0, 12] skewed low (many students have h ≤ 3);
        mid-career h ∈ [13, 18] uniform-ish; experienced h ≥ 19 with a
        geometric tail (a few researchers reach h of 60+).
        """
        r = self._rng
        if band == "novice":
            # mixture: 45% students (h 0-2), else rising to 12
            if r.random() < 0.45:
                return int(r.integers(0, 3))
            return int(r.integers(3, 13))
        if band == "mid-career":
            return int(r.integers(13, 19))
        if band == "experienced":
            return 19 + int(r.geometric(0.12)) - 1
        raise ValueError(f"unknown band {band!r}")

    def draw_career(self, role_kind: str, gender: str) -> Career:
        band = self.draw_band(role_kind, gender)
        h = self.draw_h(band)
        pubs = self._pubs_for_h(h)
        vector = self._citation_vector(h, pubs)
        return Career(band, h, pubs, tuple(vector.tolist()))

    # -------------------------------------------------------- construction

    def _pubs_for_h(self, h: int) -> int:
        """Publication count consistent with an h-index.

        Empirically pubs ≈ 2–6 × h for systems researchers; students with
        h=0 still have 0–3 papers.  Must be ≥ h.
        """
        r = self._rng
        if h == 0:
            return int(r.integers(0, 4))
        mult = 2.0 + r.lognormal(mean=0.0, sigma=0.45)
        return max(h, int(round(h * mult)))

    def _citation_vector(self, h: int, pubs: int) -> np.ndarray:
        """A citation vector of length ``pubs`` with Hirsch index exactly h."""
        r = self._rng
        if pubs == 0:
            return np.zeros(0, dtype=np.int64)
        if h == 0:
            # every paper strictly below 1 citation is impossible to get
            # wrong: all zeros
            return np.zeros(pubs, dtype=np.int64)
        # Top h papers: h + overshoot, decaying. Overshoot gives the heavy
        # right tail seen in Figs. 3-4.
        overshoot = r.geometric(p=0.08, size=h)
        overshoot.sort()
        top = overshoot[::-1] + h
        rest_n = pubs - h
        if rest_n > 0:
            # Strictly below h citations each, skewed toward 0, and below
            # h so they cannot raise the index. Cap also at h-1.
            rest = r.geometric(p=max(0.15, 2.0 / (h + 2)), size=rest_n)
            rest -= 1
            np.minimum(rest, h - 1, out=rest)
            vec = np.concatenate([top, rest])
        else:
            vec = top
        assert compute_h(vec) == h, (h, pubs, vec[:10])
        return vec


def gs_reported_publications(true_pubs: int, rng: np.random.Generator) -> int:
    """What Google Scholar displays for a researcher's publication count.

    GS over-counts (versions, non-archival items) by a modest noisy
    factor.
    """
    if true_pubs == 0:
        return 0
    factor = rng.lognormal(mean=0.08, sigma=0.15)
    return max(1, int(round(true_pubs * factor)))


def s2_reported_publications(true_pubs: int, rng: np.random.Generator) -> int:
    """What Semantic Scholar reports for the same researcher.

    S2's disambiguation differs wildly from GS's: heavy multiplicative
    noise plus occasional profile merges/splits.  This is what drives the
    paper's low GS↔S2 correlation (r = 0.334) — reproduced in tests.
    """
    if true_pubs == 0:
        return int(rng.integers(0, 3))
    factor = rng.lognormal(mean=0.0, sigma=0.9)
    count = int(round(true_pubs * factor))
    if rng.random() < 0.08:
        # merged with a different author's record
        count += int(rng.integers(20, 400))
    return max(0, count)
