"""§3.1 — female author ratios (FAR).

Computes the paper's author-population statistics: overall FAR over all
authorship positions, per-conference FAR over each conference's unique
authors, lead (first-position) and last (senior-position) ratios, and
the last-vs-all contrast (χ² = 0.724, p = 0.395 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.common import mask_eq, venues, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result
from repro.stats.proportions import Proportion, proportion_diff

__all__ = ["ConferenceFar", "FarReport", "far_report"]


@dataclass(frozen=True)
class ConferenceFar:
    """One conference's author gender composition (unique authors)."""

    conference: str
    authors: Proportion          # women among known-gender unique authors
    lead: Proportion             # women among known-gender first authors
    last: Proportion             # women among known-gender last authors


@dataclass(frozen=True)
class FarReport:
    """§3.1's quantities."""

    overall: Proportion          # all authorship positions
    lead_overall: Proportion
    last_overall: Proportion
    last_vs_all: Chi2Result      # the paper's 8.4% vs 9.9% contrast
    by_conference: tuple[ConferenceFar, ...]

    def conference(self, name: str) -> ConferenceFar:
        for c in self.by_conference:
            if c.conference == name:
                return c
        raise KeyError(f"no conference {name!r}")


def far_report(ds: AnalysisDataset) -> FarReport:
    """Compute §3.1 over an analysis dataset."""
    positions = ds.author_positions
    overall = women_share(positions)

    firsts = positions.filter(lambda t: mask_eq(t, "is_first", True))
    lasts = positions.filter(lambda t: mask_eq(t, "is_last", True))
    lead_overall = women_share(firsts)
    last_overall = women_share(lasts)

    by_conf = []
    for conf in venues(ds):
        uniq = ds.conf_authors.filter(lambda t: mask_eq(t, "conference", conf))
        cf = firsts.filter(lambda t: mask_eq(t, "conference", conf))
        cl = lasts.filter(lambda t: mask_eq(t, "conference", conf))
        by_conf.append(
            ConferenceFar(
                conference=conf,
                authors=women_share(uniq),
                lead=women_share(cf),
                last=women_share(cl),
            )
        )

    return FarReport(
        overall=overall,
        lead_overall=lead_overall,
        last_overall=last_overall,
        last_vs_all=proportion_diff(last_overall, overall),
        by_conference=tuple(by_conf),
    )
