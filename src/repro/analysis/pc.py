"""§3.2 — program committees.

"Among the 1220 total PC members, 18.46% are women (with repeats)...
The SC conference invited the most women to its PC ... (29.6%). But even
excluding the data from SC, the ratio of women among PCs is still
16.1%."  Plus: four of nine conferences appointed no women PC chairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import mask_eq, venues, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result
from repro.stats.proportions import Proportion, proportion_diff

__all__ = ["PcReport", "pc_report"]


@dataclass(frozen=True)
class PcReport:
    """§3.2's quantities."""

    memberships: Proportion              # women among all PC seats (repeats)
    by_conference: dict[str, Proportion]
    excluding_sc: Proportion
    pc_vs_authors: Chi2Result            # PC ratio ≈ 2× author ratio
    chairs: Proportion
    chairs_by_conference: dict[str, Proportion]
    zero_women_chair_confs: tuple[str, ...]


def pc_report(ds: AnalysisDataset) -> PcReport:
    """Compute §3.2 over an analysis dataset."""
    slots = ds.role_slots
    pc = slots.filter(lambda t: mask_eq(t, "role", "pc_member"))
    memberships = women_share(pc)

    names = venues(ds)
    by_conf: dict[str, Proportion] = {}
    for conf in names:
        by_conf[conf] = women_share(pc.filter(lambda t: mask_eq(t, "conference", conf)))

    non_sc = pc.filter(lambda t: ~mask_eq(t, "conference", "SC"))
    excluding_sc = women_share(non_sc)

    authors = women_share(ds.author_positions)
    pc_vs_authors = proportion_diff(memberships, authors)

    chairs_tab = slots.filter(lambda t: mask_eq(t, "role", "pc_chair"))
    chairs = women_share(chairs_tab)
    chairs_by_conf: dict[str, Proportion] = {}
    zero: list[str] = []
    for conf in names:
        p = women_share(chairs_tab.filter(lambda t: mask_eq(t, "conference", conf)))
        chairs_by_conf[conf] = p
        if p.n > 0 and p.hits == 0:
            zero.append(conf)

    return PcReport(
        memberships=memberships,
        by_conference=by_conf,
        excluding_sc=excluding_sc,
        pc_vs_authors=pc_vs_authors,
        chairs=chairs,
        chairs_by_conference=chairs_by_conf,
        zero_women_chair_confs=tuple(zero),
    )
