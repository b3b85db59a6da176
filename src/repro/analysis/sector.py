"""§5.3 / Fig. 8 — work sectors.

COM/EDU/GOV shares of unique researchers (8.6% / 72.8% / 18.6%) and the
women's share per sector × role, with the paper's nonsignificant χ²
contrasts (PC: χ² = 0.522, p = 0.77; authors: χ² = 1.629, p = 0.443).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import mask_eq, memoized, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result, chi2_contingency
from repro.stats.proportions import Proportion

__all__ = ["SectorReport", "sector_report"]

_SECTORS = ("COM", "EDU", "GOV")


@dataclass(frozen=True)
class SectorReport:
    """§5.3's quantities."""

    sector_shares: dict[str, float]                       # unique researchers
    women_by_sector_author: dict[str, Proportion]
    women_by_sector_pc: dict[str, Proportion]
    author_test: Chi2Result
    pc_test: Chi2Result


def _women_men_matrix(shares: dict[str, Proportion]) -> np.ndarray:
    return np.array(
        [[shares[s].hits, shares[s].n - shares[s].hits] for s in _SECTORS],
        dtype=np.float64,
    )


@memoized
def sector_report(ds: AnalysisDataset) -> SectorReport:
    """Compute §5.3 over an analysis dataset."""
    r = ds.researchers
    with_sector = r.filter(lambda t: ~t.col("sector").is_missing())
    n = max(1, with_sector.num_rows)
    shares = {
        s: float(np.sum(mask_eq(with_sector, "sector", s))) / n for s in _SECTORS
    }

    def by_sector(flag_col: str) -> dict[str, Proportion]:
        out: dict[str, Proportion] = {}
        sub = with_sector.filter(
            lambda t: np.array([bool(x) for x in t[flag_col]], dtype=bool)
        )
        for s in _SECTORS:
            out[s] = women_share(sub.filter(lambda t: mask_eq(t, "sector", s)))
        return out

    authors = by_sector("is_author")
    pc = by_sector("is_pc")

    def test(shares_map: dict[str, Proportion]) -> Chi2Result:
        m = _women_men_matrix(shares_map)
        if (m.sum(axis=1) > 0).all() and (m.sum(axis=0) > 0).all():
            return chi2_contingency(m)
        return Chi2Result(float("nan"), 2, float("nan"), ())

    return SectorReport(
        sector_shares=shares,
        women_by_sector_author=authors,
        women_by_sector_pc=pc,
        author_test=test(authors),
        pc_test=test(pc),
    )
