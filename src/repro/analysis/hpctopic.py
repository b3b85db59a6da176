"""§4.1 — the strictly-HPC paper subset.

178 of 518 papers were tagged HPC; 10.1% of their known-gender authors
were women vs 9.9% overall (χ² = 4.656, p = 0.031 in the paper), and
11.05% of HPC papers with known first-author gender had a woman lead vs
10.86% overall (χ² = 0.0547, p = 0.8151 — nonsignificant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import memoized, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result
from repro.stats.proportions import Proportion, proportion_diff

__all__ = ["HpcTopicReport", "hpc_topic_report"]


@dataclass(frozen=True)
class HpcTopicReport:
    """§4.1's quantities."""

    hpc_papers: int
    all_papers: int
    authors_hpc: Proportion          # women among HPC-paper author positions
    authors_all: Proportion
    authors_test: Chi2Result
    lead_hpc: Proportion
    lead_all: Proportion
    lead_test: Chi2Result


@memoized
def hpc_topic_report(ds: AnalysisDataset) -> HpcTopicReport:
    """Compute §4.1 over an analysis dataset."""
    papers = ds.papers
    flag_col = papers.col("is_hpc")
    # the flag column is bool when complete and float-with-NaN when some
    # proceedings records were missing; a missing flag is *unknown*, not
    # False (and certainly not True, which bool(NaN) would make it)
    known = ~flag_col.is_missing()
    truthy = np.zeros(len(flag_col), dtype=bool)
    truthy[known] = flag_col.values[known].astype(bool)
    hpc_flags = {
        pid: bool(t)
        for pid, t, k in zip(papers["paper_id"], truthy, known)
        if k
    }
    hpc_count = int(truthy.sum())

    positions = ds.author_positions
    in_hpc = np.array(
        [hpc_flags.get(pid, False) for pid in positions["paper_id"]], dtype=bool
    )
    authors_hpc = women_share(positions.filter(in_hpc))
    authors_all = women_share(positions)

    firsts = papers.filter(truthy)
    lead_hpc = women_share(firsts, "first_gender")
    lead_all = women_share(papers, "first_gender")

    return HpcTopicReport(
        hpc_papers=hpc_count,
        all_papers=papers.num_rows,
        authors_hpc=authors_hpc,
        authors_all=authors_all,
        authors_test=proportion_diff(authors_hpc, authors_all),
        lead_hpc=lead_hpc,
        lead_all=lead_all,
        lead_test=proportion_diff(lead_hpc, lead_all),
    )
