"""Paper-vs-measured comparison for EXPERIMENTS.md."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.blind import blind_report
from repro.analysis.experience import experience_report
from repro.analysis.far import far_report
from repro.analysis.hpctopic import hpc_topic_report
from repro.analysis.pc import pc_report
from repro.analysis.reception import reception_report
from repro.analysis.sector import sector_report
from repro.analysis.visible import visible_report
from repro.calibration.targets import PAPER_STATS
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.runner import PipelineResult
from repro.stats.proportions import Proportion
from repro.viz.tableprint import format_records

__all__ = ["ComparisonRow", "compare_headlines", "render_comparison"]


@dataclass(frozen=True)
class ComparisonRow:
    """One compared statistic."""

    experiment: str
    statistic: str
    paper: float
    measured: float

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.paper)

    @property
    def rel_error(self) -> float:
        return self.abs_error / abs(self.paper) if self.paper else float("inf")


def compare_headlines(result: PipelineResult) -> list[ComparisonRow]:
    """Each headline statistic the dataset has, paired with the paper's value."""
    ds = result.dataset
    far = far_report(ds)
    blind = blind_report(ds)
    pc = pc_report(ds)
    vis = visible_report(ds)
    hpc = hpc_topic_report(ds)
    rec = reception_report(ds)
    exp = experience_report(ds)
    sec = sector_report(ds)
    cov = result.coverage

    rows: list[tuple[str, str, float, float | None]] = [
        ("S3.1", "far_overall", PAPER_STATS["S3.1"]["far_overall"], far.overall.pct),
        ("S3.1", "far_sc", PAPER_STATS["S3.1"]["far_sc"], _pct(far.authors_of("SC"))),
        ("S3.1", "far_isc", PAPER_STATS["S3.1"]["far_isc"], _pct(far.authors_of("ISC"))),
        ("S3.1", "far_double_blind", PAPER_STATS["S3.1"]["far_double_blind"], blind.authors_double.pct),
        ("S3.1", "far_single_blind", PAPER_STATS["S3.1"]["far_single_blind"], blind.authors_single.pct),
        ("S3.1", "blind_chi2", PAPER_STATS["S3.1"]["blind_chi2"], blind.authors_test.statistic),
        ("S3.1", "lead_far_single", PAPER_STATS["S3.1"]["lead_far_single"], blind.lead_single.pct),
        ("S3.1", "lead_far_double", PAPER_STATS["S3.1"]["lead_far_double"], blind.lead_double.pct),
        ("S3.1", "lead_chi2", PAPER_STATS["S3.1"]["lead_chi2"], blind.lead_test.statistic),
        ("S3.1", "last_far", PAPER_STATS["S3.1"]["last_far"], far.last_overall.pct),
        ("S3.2", "pc_far", PAPER_STATS["S3.2"]["pc_far"], pc.memberships.pct),
        ("S3.2", "pc_memberships", PAPER_STATS["S3.2"]["pc_memberships"], float(pc.memberships.n + _unknown_pc(ds))),
        ("S3.2", "sc_pc_far", PAPER_STATS["S3.2"]["sc_pc_far"], _pct(pc.by_conference.get("SC"))),
        ("S3.2", "pc_far_excl_sc", PAPER_STATS["S3.2"]["pc_far_excl_sc"], pc.excluding_sc.pct),
        ("S3.2", "zero_women_chair_confs", PAPER_STATS["S3.2"]["zero_women_chair_confs"], float(len(pc.zero_women_chair_confs))),
        ("S3.3", "zero_women_keynote_confs", PAPER_STATS["S3.3"]["zero_women_keynote_confs"], float(len(vis.zero_women_confs["keynote"]))),
        ("S3.3", "zero_women_session_chair_confs", PAPER_STATS["S3.3"]["zero_women_session_chair_confs"], float(len(vis.zero_women_confs["session_chair"]))),
        ("S3.3", "zero_session_chair_seats", PAPER_STATS["S3.3"]["zero_session_chair_seats"], float(vis.zero_session_chair_seats)),
        ("S4.1", "hpc_papers", PAPER_STATS["S4.1"]["hpc_papers"], float(hpc.hpc_papers)),
        ("S4.1", "hpc_author_far", PAPER_STATS["S4.1"]["hpc_author_far"], hpc.authors_hpc.pct),
        ("S4.1", "hpc_lead_far", PAPER_STATS["S4.1"]["hpc_lead_far"], hpc.lead_hpc.pct),
        ("S4.1", "overall_lead_far", PAPER_STATS["S4.1"]["overall_lead_far"], hpc.lead_all.pct),
        ("F2", "papers_female_lead", PAPER_STATS["F2"]["papers_female_lead"], float(rec.n_female_lead)),
        ("F2", "papers_male_lead", PAPER_STATS["F2"]["papers_male_lead"], float(rec.n_male_lead)),
        ("F2", "mean_cites_female", PAPER_STATS["F2"]["mean_cites_female"], rec.mean_female),
        ("F2", "mean_cites_male", PAPER_STATS["F2"]["mean_cites_male"], rec.mean_male),
        ("F2", "mean_cites_female_no_outlier", PAPER_STATS["F2"]["mean_cites_female_no_outlier"], rec.mean_female_no_outlier),
        ("F2", "welch_t", PAPER_STATS["F2"]["welch_t"], rec.welch_no_outlier.statistic),
        ("F2", "i10_share_female", PAPER_STATS["F2"]["i10_share_female"], 100 * rec.i10_female),
        ("F2", "i10_share_male", PAPER_STATS["F2"]["i10_share_male"], 100 * rec.i10_male),
        ("F5", "gs_s2_r", PAPER_STATS["F5"]["gs_s2_r"], exp.gs_s2_correlation.r),
        ("F6", "novice_female_authors", PAPER_STATS["F6"]["novice_female_authors"], 100 * exp.novice_female_authors),
        ("F6", "novice_male_authors", PAPER_STATS["F6"]["novice_male_authors"], 100 * exp.novice_male_authors),
        ("F6", "novice_chi2", PAPER_STATS["F6"]["novice_chi2"], exp.novice_test.statistic),
        ("F8", "pc_sector_chi2", PAPER_STATS["F8"]["pc_sector_chi2"], sec.pc_test.statistic),
        ("F8", "author_sector_chi2", PAPER_STATS["F8"]["author_sector_chi2"], sec.author_test.statistic),
        ("COVERAGE", "manual_pct", PAPER_STATS["COVERAGE"]["manual_pct"], 100 * cov["manual"]),
        ("COVERAGE", "genderize_pct", PAPER_STATS["COVERAGE"]["genderize_pct"], 100 * cov["genderize"]),
        ("COVERAGE", "unknown_pct", PAPER_STATS["COVERAGE"]["unknown_pct"], 100 * cov["none"]),
        ("COVERAGE", "gs_coverage_known", PAPER_STATS["COVERAGE"]["gs_coverage_known"], 100 * exp.gs_coverage_known_gender),
    ]
    # a statistic the dataset cannot define (None, or NaN such as a
    # double-blind share on a universe without double-blind venues) is
    # left out rather than counted as a miss
    return [
        ComparisonRow(e, s, p, m)
        for e, s, p, m in rows
        if m is not None and math.isfinite(m)
    ]


def _pct(share: Proportion | None) -> float | None:
    return None if share is None else share.pct


def _unknown_pc(ds: AnalysisDataset) -> int:
    """PC seats held by unknown-gender researchers (denominator filler)."""
    import numpy as np

    slots = ds.role_slots
    is_pc = np.array([r == "pc_member" for r in slots["role"]], dtype=bool)
    missing = slots.col("gender").is_missing()
    return int(np.sum(is_pc & missing))


def render_comparison(rows: list[ComparisonRow]) -> str:
    """ASCII table of a comparison."""
    recs = [
        {
            "exp": r.experiment,
            "statistic": r.statistic,
            "paper": round(r.paper, 3),
            "measured": round(r.measured, 3),
            "abs_err": round(r.abs_error, 3),
        }
        for r in rows
    ]
    return format_records(recs, title="Paper vs measured")
