"""§4.2 / Fig. 2 — paper reception by lead-author gender.

Citations at 36 months: 53 female-led papers averaging 13.04 vs 435
male-led at 10.55; excluding the single >450-citation female-led outlier
drops the female mean to 7.63 (Welch t = −2.18, df = 86, p = 0.032);
23% of female-led vs 38% of male-led papers reach i10 (χ² = 3.69,
p = 0.055).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import memoized
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result, chi2_two_proportions
from repro.stats.kde import KdeResult, gaussian_kde
from repro.stats.ttest import TTestResult, welch_ttest

__all__ = ["ReceptionReport", "reception_report"]


@dataclass(frozen=True)
class ReceptionReport:
    """Fig. 2's quantities."""

    n_female_lead: int
    n_male_lead: int
    mean_female: float               # including the outlier
    mean_male: float
    outlier_citations: int | None    # the single max female-led paper
    mean_female_no_outlier: float
    welch_no_outlier: TTestResult    # female (no outlier) vs male
    i10_female: float                # share of female-led papers ≥ 10 cites
    i10_male: float
    i10_test: Chi2Result
    kde_female: KdeResult | None     # densities behind the figure
    kde_male: KdeResult | None


@memoized
def reception_report(ds: AnalysisDataset, outlier_threshold: int = 100) -> ReceptionReport:
    """Compute Fig. 2 over an analysis dataset.

    ``outlier_threshold``: the outlier is the maximum female-led paper
    *if* it exceeds this many citations (the paper's outlier is >450 at
    ~4 years, ≈294 at 36 months); otherwise no exclusion happens.
    """
    papers = ds.papers
    lead = papers.col("first_gender")
    cites = papers["citations_36mo"].astype(np.float64)
    have_cites = ~np.isnan(cites)

    f_mask = np.array([g == "F" for g in lead.values], dtype=bool) & have_cites
    m_mask = np.array([g == "M" for g in lead.values], dtype=bool) & have_cites
    fc = cites[f_mask]
    mc = cites[m_mask]

    outlier = float(fc.max()) if fc.size else float("nan")
    exclude = fc.size > 1 and outlier >= outlier_threshold
    fc_no = fc[fc != outlier] if exclude else fc

    welch = welch_ttest(fc_no, mc)
    i10_f = float(np.mean(fc >= 10)) if fc.size else float("nan")
    i10_m = float(np.mean(mc >= 10)) if mc.size else float("nan")
    i10_test = chi2_two_proportions(
        int(np.sum(fc >= 10)), int(fc.size), int(np.sum(mc >= 10)), int(mc.size)
    ) if fc.size and mc.size else Chi2Result(float("nan"), 1, float("nan"), ())

    kde_f = gaussian_kde(fc) if fc.size >= 2 else None
    kde_m = gaussian_kde(mc) if mc.size >= 2 else None

    return ReceptionReport(
        n_female_lead=int(fc.size),
        n_male_lead=int(mc.size),
        mean_female=float(fc.mean()) if fc.size else float("nan"),
        mean_male=float(mc.mean()) if mc.size else float("nan"),
        outlier_citations=int(outlier) if exclude else None,
        mean_female_no_outlier=float(fc_no.mean()) if fc_no.size else float("nan"),
        welch_no_outlier=welch,
        i10_female=i10_f,
        i10_male=i10_m,
        i10_test=i10_test,
        kde_female=kde_f,
        kde_male=kde_m,
    )
