"""Builders for the paper's eight figures.

Each builder returns a :class:`FigureResult`: the underlying data series
(the same ones ggplot would receive) plus an ASCII rendering, so the
benchmark harness can print the series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.common import mask_eq, mask_flag
from repro.analysis.experience import experience_report
from repro.analysis.far import far_report
from repro.analysis.geography import geography_report
from repro.analysis.pc import pc_report
from repro.analysis.reception import reception_report
from repro.analysis.sector import sector_report
from repro.analysis.visible import visible_report
from repro.pipeline.dataset import AnalysisDataset
from repro.viz.ascii import bar_chart
from repro.viz.density import density_plot

__all__ = [
    "FigureResult",
    "build_fig1",
    "build_fig2",
    "build_fig3",
    "build_fig4",
    "build_fig5",
    "build_fig6",
    "build_fig7",
    "build_fig8",
]


@dataclass(frozen=True)
class FigureResult:
    """Data + rendering of one reproduced figure."""

    figure: str
    data: dict[str, Any]
    text: str


def _gender_samples(ds: AnalysisDataset, column: str, flag: str) -> dict[str, np.ndarray]:
    """Non-NaN ``column`` values of flagged women and men, in row order."""
    r = ds.researchers
    flagged = mask_flag(r, flag)
    out = {}
    for g in ("F", "M"):
        v = r[column][flagged & mask_eq(r, "gender", g)].astype(np.float64)
        out[g] = v[~np.isnan(v)]
    return out


def build_fig1(ds: AnalysisDataset) -> FigureResult:
    """Fig. 1: representation of women across conference roles."""
    far = far_report(ds)
    pc = pc_report(ds)
    vis = visible_report(ds)
    per_conf: dict[str, dict[str, float]] = {}
    for c in far.by_conference:
        per_conf[c.conference] = {"author": c.authors.pct}
    for conf, p in pc.by_conference.items():
        per_conf.setdefault(conf, {})["pc_member"] = p.pct
    for conf, p in pc.chairs_by_conference.items():
        per_conf.setdefault(conf, {})["pc_chair"] = p.pct
    for role, conf_map in vis.by_conference.items():
        for conf, p in conf_map.items():
            per_conf.setdefault(conf, {})[role] = p.pct
    overall = {
        "author": far.overall.pct,
        "pc_chair": pc.chairs.pct,
        "pc_member": pc.memberships.pct,
        **{role: p.pct for role, p in vis.overall.items()},
    }
    text = bar_chart(
        overall, title="Fig. 1: % women by conference role (all conferences)"
    )
    return FigureResult("fig1", {"overall": overall, "per_conference": per_conf}, text)


def build_fig2(ds: AnalysisDataset) -> FigureResult:
    """Fig. 2: citation distributions 36 months out, by lead gender."""
    rep = reception_report(ds)
    papers = ds.papers
    cites = papers["citations_36mo"].astype(np.float64)
    lead = papers.col("first_gender").values
    samples = {
        "women-led": cites[np.array([g == "F" for g in lead], bool)],
        "men-led": cites[np.array([g == "M" for g in lead], bool)],
    }
    text = density_plot(
        samples,
        title="Fig. 2: citations 36 months after publication (density)",
        log_scale=True,
    )
    stats = (
        f"\nwomen-led: n={rep.n_female_lead} mean={rep.mean_female:.2f} "
        f"(excl. outlier {rep.outlier_citations}: {rep.mean_female_no_outlier:.2f})"
        f"\nmen-led:   n={rep.n_male_lead} mean={rep.mean_male:.2f}"
        f"\nWelch t={rep.welch_no_outlier.statistic:.2f} "
        f"df={rep.welch_no_outlier.df:.0f} p={rep.welch_no_outlier.p_value:.3f}"
        f"\ni10 share: women {100*rep.i10_female:.0f}% vs men {100*rep.i10_male:.0f}%"
    )
    return FigureResult(
        "fig2",
        {"samples": samples, "report": rep},
        text + stats,
    )


def build_fig3(ds: AnalysisDataset) -> FigureResult:
    """Fig. 3: GS past publications by gender and role (densities)."""
    data = {
        "authors": _gender_samples(ds, "gs_pubs", "is_author"),
        "pc": _gender_samples(ds, "gs_pubs", "is_pc"),
    }
    text = "\n\n".join(
        density_plot(
            {f"{g}": v for g, v in samples.items()},
            title=f"Fig. 3 ({role}): GS past publications by gender (log density)",
            log_scale=True,
        )
        for role, samples in data.items()
    )
    return FigureResult("fig3", data, text)


def build_fig4(ds: AnalysisDataset) -> FigureResult:
    """Fig. 4: h-index distribution by gender and role."""
    data = {
        "authors": _gender_samples(ds, "gs_h", "is_author"),
        "pc": _gender_samples(ds, "gs_h", "is_pc"),
    }
    text = "\n\n".join(
        density_plot(
            {f"{g}": v for g, v in samples.items()},
            title=f"Fig. 4 ({role}): h-index by gender (log density)",
            log_scale=True,
        )
        for role, samples in data.items()
    )
    return FigureResult("fig4", data, text)


def build_fig5(ds: AnalysisDataset) -> FigureResult:
    """Fig. 5: Semantic Scholar past publications by gender (authors)."""
    data = _gender_samples(ds, "s2_pubs", "is_author")
    exp = experience_report(ds)
    text = density_plot(
        data,
        title="Fig. 5: S2 past publications by gender (authors, log density)",
        log_scale=True,
    )
    text += (
        f"\nGS vs S2 correlation: r={exp.gs_s2_correlation.r:.3f} "
        f"p={exp.gs_s2_correlation.p_value:.2g} (paper: r=0.334, p<0.0001)"
    )
    return FigureResult("fig5", {"samples": data, "correlation": exp.gs_s2_correlation}, text)


def build_fig6(ds: AnalysisDataset) -> FigureResult:
    """Fig. 6: experience bands by gender (all researchers)."""
    exp = experience_report(ds)
    flat = {}
    for (role, gender), shares in exp.band_shares.items():
        for band, share in shares.items():
            flat[f"{role}/{gender}/{band}"] = 100 * share
    text = bar_chart(flat, title="Fig. 6: experience bands by gender and role (%)")
    text += (
        f"\nnovice authors: women {100*exp.novice_female_authors:.1f}% vs "
        f"men {100*exp.novice_male_authors:.1f}% "
        f"(chi2={exp.novice_test.statistic:.2f}, p={exp.novice_test.p_value:.3g})"
    )
    return FigureResult("fig6", {"band_shares": exp.band_shares, "report": exp}, text)


def build_fig7(ds: AnalysisDataset, min_authors: int = 10) -> FigureResult:
    """Fig. 7: % women for countries with at least ``min_authors`` authors."""
    geo = geography_report(ds)
    eligible = [c for c in geo.countries if c.author_total >= min_authors]
    eligible.sort(key=lambda c: -c.women.value if c.women.n else 0.0)
    bars = {c.country_code: c.women.pct for c in eligible}
    text = bar_chart(
        bars,
        title=f"Fig. 7: % women for countries with >= {min_authors} authors",
    )
    return FigureResult("fig7", {"countries": eligible}, text)


def build_fig8(ds: AnalysisDataset) -> FigureResult:
    """Fig. 8: % women by sector and role."""
    sec = sector_report(ds)
    bars = {}
    for s, p in sec.women_by_sector_author.items():
        bars[f"author/{s}"] = p.pct
    for s, p in sec.women_by_sector_pc.items():
        bars[f"pc/{s}"] = p.pct
    text = bar_chart(bars, title="Fig. 8: % women by sector and role")
    text += (
        f"\nauthors chi2={sec.author_test.statistic:.2f} p={sec.author_test.p_value:.3f}"
        f" | pc chi2={sec.pc_test.statistic:.2f} p={sec.pc_test.p_value:.3f}"
    )
    return FigureResult("fig8", {"report": sec}, text)
