"""A single markdown run report covering the whole reproduction.

:func:`full_report` renders one self-contained markdown document —
headline statistics, all three tables, figure summaries, coverage,
sensitivity — suitable for dropping into a lab notebook or CI artifact.
Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

from repro.analysis import (
    blind_report,
    casestudy_report,
    experience_report,
    far_report,
    hpc_topic_report,
    pc_report,
    reception_report,
    sector_report,
    sensitivity_report,
    visible_report,
)
from repro.pipeline.runner import PipelineResult
from repro.report.compare import compare_headlines
from repro.report.tables import build_table1, build_table2, build_table3
from repro.version import __version__

__all__ = ["full_report"]


def _pct(x: float, digits: int = 2) -> str:
    return f"{100 * x:.{digits}f}%"


def full_report(result: PipelineResult) -> str:
    """Render the complete markdown run report."""
    ds = result.dataset
    far = far_report(ds)
    blind = blind_report(ds)
    pc = pc_report(ds)
    vis = visible_report(ds)
    hpc = hpc_topic_report(ds)
    rec = reception_report(ds)
    exp = experience_report(ds)
    sec = sector_report(ds)
    sens = sensitivity_report(ds)
    cov = result.coverage

    lines: list[str] = []
    add = lines.append
    add(f"# Reproduction run report (repro {__version__})")
    add("")
    add(f"- seed: {result.world.seed}, scale: {result.world.config.scale}")
    add(f"- researchers: {ds.researchers.num_rows}, papers: {ds.papers.num_rows}")
    add(f"- pipeline wall time: {result.timer.total() * 1e3:.0f} ms")
    add("")

    add("## Gender-assignment coverage (§2)")
    add("")
    add(f"manual {_pct(cov['manual'])} · genderize {_pct(cov['genderize'])} · "
        f"unassigned {_pct(cov['none'])}  (paper: 95.18% / 1.79% / 3.03%)")
    add("")

    add("## Authors (§3.1)")
    add("")
    add(f"- FAR overall: **{far.overall}** (paper 9.9%)")
    add(f"- SC {far.conference('SC').authors}, ISC {far.conference('ISC').authors}")
    add(f"- double-blind {blind.authors_double} vs single-blind "
        f"{blind.authors_single} (χ²={blind.authors_test.statistic:.2f}, "
        f"p={blind.authors_test.p_value:.3f})")
    add(f"- lead authors: {far.lead_overall}; last authors: {far.last_overall}")
    add("")

    add("## Committees and visible roles (§3.2–§3.3)")
    add("")
    add(f"- PC memberships: {pc.memberships} (SC: {pc.by_conference['SC']}; "
        f"excluding SC: {pc.excluding_sc})")
    add(f"- zero-women PC chairs: {', '.join(pc.zero_women_chair_confs) or 'none'}")
    add(f"- zero-women session chairs: "
        f"{', '.join(vis.zero_women_confs['session_chair']) or 'none'} "
        f"({vis.zero_session_chair_seats} seats)")
    add("")

    add("## Papers (§4)")
    add("")
    add(f"- HPC-topic subset: {hpc.hpc_papers}/{hpc.all_papers}; author FAR "
        f"{hpc.authors_hpc} vs overall {hpc.authors_all}")
    add(f"- citations (Fig. 2): women-led n={rec.n_female_lead} mean "
        f"{rec.mean_female:.2f} (excl. outlier {rec.mean_female_no_outlier:.2f}); "
        f"men-led n={rec.n_male_lead} mean {rec.mean_male:.2f}; "
        f"Welch t={rec.welch_no_outlier.statistic:.2f}")
    add("")

    add("## Demographics (§5)")
    add("")
    add(f"- GS coverage (known gender): {_pct(exp.gs_coverage_known_gender)}; "
        f"GS↔S2 r={exp.gs_s2_correlation.r:.3f}")
    add(f"- novice authors: women {_pct(exp.novice_female_authors, 1)} vs men "
        f"{_pct(exp.novice_male_authors, 1)} (χ²={exp.novice_test.statistic:.2f})")
    add(f"- sectors: COM {_pct(sec.sector_shares['COM'], 1)} / EDU "
        f"{_pct(sec.sector_shares['EDU'], 1)} / GOV {_pct(sec.sector_shares['GOV'], 1)}")
    add("")

    if result.world.timeline:
        cs = casestudy_report(result.world.timeline)
        add("## SC/ISC case study (§3.4)")
        add("")
        for conf, (lo, hi) in cs.far_range.items():
            add(f"- {conf}: FAR range {_pct(lo, 1)}–{_pct(hi, 1)} over 2016–2020")
        add("")

    add("## Sensitivity (§2)")
    add("")
    add(f"- unknowns: {sens.unknowns}; all observations stable: "
        f"**{sens.all_stable}**")
    add("")

    # survey validation (§2's "no discrepancies" check)
    from repro.names.parsing import name_key
    from repro.survey import AuthorSurvey, validate_assignments

    survey = AuthorSurvey(result.world.registry, seed=result.world.seed)
    responses = survey.run()
    id_map = {
        rec.name_key: rid for rid, rec in result.linked.researchers.items()
    }
    mapping = {}
    for resp in responses:
        person = result.world.registry.people[resp.person_id]
        rid = id_map.get(name_key(person.full_name))
        if rid:
            mapping[resp.person_id] = rid
    val = validate_assignments(responses, ds.assignments, mapping)
    add("## Author-survey validation (§2)")
    add("")
    add(f"- responses: {val.n_responses}; checked: {val.n_checked}; "
        f"agreement: {_pct(val.agreement_rate)}; discrepancies: "
        f"{len(val.discrepancies)} (paper: none)")
    add(f"- detectability floor (3/n): error rates below "
        f"{_pct(val.detectable_rate, 1)} would likely go unnoticed")
    add("")

    add("## Tables")
    for build in (build_table1, build_table2, build_table3):
        _, text = build(ds)
        add("")
        add("```")
        add(text)
        add("```")
    add("")

    rows = compare_headlines(result)
    close = sum(1 for r in rows if r.rel_error < 0.25)
    add("## Agreement with the paper")
    add("")
    add(f"{close}/{len(rows)} headline statistics within 25% relative error; "
        "see EXPERIMENTS.md for the full ledger.")
    add("")

    if result.degraded is not None:
        from repro.report.degraded import render_degraded

        add(render_degraded(result.degraded))
        add("")
    if result.contracts is not None:
        from repro.report.integrity import render_integrity

        add(render_integrity(result.contracts))
        add("")
    if result.obs is not None and result.obs.enabled:
        add(_render_observability(result))
        add("")
    return "\n".join(lines)


def _render_observability(result: PipelineResult) -> str:
    """The run's trace/metrics summary (only rendered when obs was on)."""
    obs = result.obs
    lines: list[str] = []
    add = lines.append
    add("## Observability")
    add("")
    add("```")
    add(result.timer.report())
    add("```")
    add("")
    spans = obs.tracer.finished
    add(f"- trace: {len(spans)} spans (deterministic IDs, seed {obs.seed}); "
        f"export with `--trace` and load in chrome://tracing")
    slowest = sorted(spans, key=lambda s: s.duration, reverse=True)[:5]
    if slowest:
        add("- slowest spans: "
            + ", ".join(f"{s.name} {s.duration * 1e3:.1f} ms" for s in slowest))
    counters = obs.metrics.to_dict(exclude_timings=True)["counters"]
    if counters:
        add(f"- metrics: {len(obs.metrics)} series; notable counters:")
        for name in sorted(counters):
            add(f"  - `{name}` = {counters[name]}")
    if obs.profiler is not None and obs.profiler.profiles:
        add(f"- cProfile captured for {len(obs.profiler.profiles)} stage(s); "
            f"top-{obs.profiler.top_n} cumulative printed by `--profile`")
    return "\n".join(lines)
