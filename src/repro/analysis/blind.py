"""§3.1 — double-blind vs single-blind contrasts.

SC and ISC are the only double-blind conferences in the set; the paper
contrasts women's share among their authors (7.57%) against the
single-blind conferences (10.52%, χ² = 3.133, p = 0.0767), and the same
for lead authors (6.17% vs 11.79%, χ² = 1.662, p = 0.197).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import mask_eq, memoized, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result
from repro.stats.proportions import Proportion, proportion_diff

__all__ = ["BlindReport", "blind_report"]


@dataclass(frozen=True)
class BlindReport:
    """Review-policy contrasts of §3.1."""

    double_blind_confs: tuple[str, ...]
    authors_double: Proportion
    authors_single: Proportion
    authors_test: Chi2Result
    lead_double: Proportion
    lead_single: Proportion
    lead_test: Chi2Result


@memoized
def blind_report(ds: AnalysisDataset) -> BlindReport:
    """Compute the double- vs single-blind author contrasts."""
    confs = ds.conferences
    double = tuple(
        c
        for c, db in zip(confs["conference"], confs["double_blind"])
        if bool(db)
    )
    in_double = np.array(
        [c in double for c in ds.author_positions["conference"]], dtype=bool
    )
    positions = ds.author_positions
    pos_double = positions.filter(in_double)
    pos_single = positions.filter(~in_double)

    a_d = women_share(pos_double)
    a_s = women_share(pos_single)

    firsts_d = pos_double.filter(lambda t: mask_eq(t, "is_first", True))
    firsts_s = pos_single.filter(lambda t: mask_eq(t, "is_first", True))
    l_d = women_share(firsts_d)
    l_s = women_share(firsts_s)

    return BlindReport(
        double_blind_confs=double,
        authors_double=a_d,
        authors_single=a_s,
        authors_test=proportion_diff(a_d, a_s),
        lead_double=l_d,
        lead_single=l_s,
        lead_test=proportion_diff(l_d, l_s),
    )
