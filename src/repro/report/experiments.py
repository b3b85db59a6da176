"""Experiment registry: DESIGN.md ids → runnable builders, as engine nodes.

Each builder takes a run's dataset and its SC/ISC timeline and returns
``(payload, text)``.  :func:`run_experiment` runs one as the engine node
``experiment:<id>``, fed the result's dataset and timeline as seeds:
against the run's artifact cache a warm call loads the stored
``(payload, text)`` and a cold one computes and stores it; a run without
a cache just computes it.  The benchmark harness times the calls and
prints the text, and ``examples/regenerate_paper.py`` runs them all.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.blind import blind_report
from repro.analysis.casestudy import casestudy_report
from repro.analysis.far import far_report
from repro.analysis.hpctopic import hpc_topic_report
from repro.analysis.pc import pc_report
from repro.analysis.sensitivity import sensitivity_report
from repro.analysis.visible import visible_report
from repro.engine import StageGraph, StageNode, run_dag
from repro.engine.fingerprint import source_digest
from repro.obs.context import use as _obs_use
from repro.pipeline.dataset import AnalysisDataset
from repro.pipeline.runner import PipelineResult
from repro.report.figures import (
    build_fig1,
    build_fig2,
    build_fig3,
    build_fig4,
    build_fig5,
    build_fig6,
    build_fig7,
    build_fig8,
)
from repro.report.tables import build_table1, build_table2, build_table3
from repro.synth.timeline import TimelineEdition

__all__ = ["EXPERIMENTS", "run_experiment"]

Builder = Callable[[AnalysisDataset, list[TimelineEdition]], tuple[Any, str]]


def _t(table_builder) -> Builder:
    def run(ds: AnalysisDataset, timeline):
        table, text = table_builder(ds)
        return table, text

    return run


def _f(fig_builder) -> Builder:
    def run(ds: AnalysisDataset, timeline):
        fig = fig_builder(ds)
        return fig.data, fig.text

    return run


def _headline(ds: AnalysisDataset, timeline):
    far = far_report(ds)
    blind = blind_report(ds)
    pc = pc_report(ds)
    lines = [
        f"FAR overall: {far.overall} (paper: 9.9%)",
        f"FAR SC: {far.authors_of('SC') or 'n/a'} (paper: 8.12%)",
        f"FAR ISC: {far.authors_of('ISC') or 'n/a'} (paper: 5.77%)",
        f"double-blind {blind.authors_double} vs single-blind {blind.authors_single} "
        f"(chi2={blind.authors_test.statistic:.3f}, p={blind.authors_test.p_value:.4f}; "
        "paper: 7.57% vs 10.52%, chi2=3.133, p=0.0767)",
        f"lead double {blind.lead_double} vs single {blind.lead_single} "
        f"(chi2={blind.lead_test.statistic:.3f}; paper: 6.17% vs 11.79%, chi2=1.662)",
        f"last authors: {far.last_overall} vs all {far.overall} "
        f"(chi2={far.last_vs_all.statistic:.3f}, p={far.last_vs_all.p_value:.3f}; "
        "paper: 8.4% vs 9.9%, chi2=0.724, p=0.395)",
        f"PC: {pc.memberships} (paper: 18.46% of 1220); SC PC {pc.by_conference.get('SC', 'n/a')} "
        f"(paper 29.6%); excl. SC {pc.excluding_sc} (paper 16.1%)",
        f"zero-women PC chairs at: {', '.join(pc.zero_women_chair_confs)} (paper: 4 confs)",
    ]
    return {"far": far, "blind": blind, "pc": pc}, "\n".join(lines)


def _visible(ds: AnalysisDataset, timeline):
    vis = visible_report(ds)
    lines = [
        f"zero-women keynotes at: {', '.join(vis.zero_women_confs['keynote'])} (paper: 4 confs)",
        f"zero-women session chairs at: {', '.join(vis.zero_women_confs['session_chair'])} "
        f"covering {vis.zero_session_chair_seats} seats (paper: HPDC/HPCC/HiPC, 45 seats)",
    ]
    for role, p in vis.overall.items():
        lines.append(f"{role}: {p}")
    return vis, "\n".join(lines)


def _hpc(ds: AnalysisDataset, timeline):
    h = hpc_topic_report(ds)
    text = (
        f"HPC papers: {h.hpc_papers}/{h.all_papers} (paper: 178/518)\n"
        f"authors: {h.authors_hpc} vs overall {h.authors_all} "
        f"(chi2={h.authors_test.statistic:.3f}, p={h.authors_test.p_value:.3f}; "
        "paper: 10.1% vs 9.9%)\n"
        f"leads: {h.lead_hpc} vs overall {h.lead_all} "
        f"(chi2={h.lead_test.statistic:.3f}, p={h.lead_test.p_value:.3f}; "
        "paper: 11.05% vs 10.86%, chi2=0.0547, p=0.8151)"
    )
    return h, text


def _casestudy(ds: AnalysisDataset, timeline: list[TimelineEdition]):
    # a sharded run builds no SC/ISC timeline: it reports as an empty one
    cs = casestudy_report(timeline)
    lines = []
    for conf, points in cs.series.items():
        series = ", ".join(f"{p.year}:{100*p.far:.1f}%" for p in points)
        lo, hi = cs.far_range[conf]
        lines.append(
            f"{conf}: {series}  (range {100*lo:.1f}%-{100*hi:.1f}%; "
            f"trend r={cs.trend[conf].r:.2f})"
        )
    lines.append("paper: SC attendance ~13-14%; ISC FAR 5%-9%")
    return cs, "\n".join(lines)


def _policy(ds: AnalysisDataset, timeline):
    from repro.analysis.policies import policy_report

    rep = policy_report(ds)
    lines = [
        f"PC-share vs author-FAR correlation across conferences: "
        f"r={rep.pc_vs_author_correlation.r:.3f} "
        f"p={rep.pc_vs_author_correlation.p_value:.3f} "
        "(paper: 'the two metrics appear to be unrelated')",
        f"diversity-policy conferences: {', '.join(rep.policy_confs)}",
        f"author FAR with policy {rep.far_policy} vs without {rep.far_no_policy} "
        f"(chi2={rep.policy_test.statistic:.2f}, p={rep.policy_test.p_value:.3f})",
        f"policy conferences below the overall average: {rep.policy_confs_below_average} "
        "(the §3.4 paradox)",
    ]
    return rep, "\n".join(lines)


def _sensitivity(ds: AnalysisDataset, timeline):
    rep = sensitivity_report(ds)
    lines = [
        f"unknown-gender researchers: {rep.unknowns} "
        f"({100*rep.unknowns/max(1,ds.researchers.num_rows):.2f}%; paper: 144, 3.03%)",
        f"FAR baseline {100*rep.far_values['baseline']:.2f}% | "
        f"all-women {100*rep.far_values['all_women']:.2f}% | "
        f"all-men {100*rep.far_values['all_men']:.2f}%",
        f"all observations stable: {rep.all_stable} (paper: none changed)",
    ]
    for o in rep.observations:
        lines.append(
            f"  {o.name}: base={o.baseline} allF={o.all_women} allM={o.all_men}"
            + ("" if o.stable else "  <-- FLIPPED")
        )
    return rep, "\n".join(lines)


#: experiment id -> builder(dataset, timeline) -> (payload, text)
EXPERIMENTS: dict[str, Builder] = {
    "T1": _t(build_table1),
    "T2": _t(build_table2),
    "T3": _t(build_table3),
    "F1": _f(build_fig1),
    "F2": _f(build_fig2),
    "F3": _f(build_fig3),
    "F4": _f(build_fig4),
    "F5": _f(build_fig5),
    "F6": _f(build_fig6),
    "F7": _f(build_fig7),
    "F8": _f(build_fig8),
    "S3.1": _headline,
    "S3.3": _visible,
    "S3.4": _casestudy,
    "S4.1": _hpc,
    "SENS": _sensitivity,
    "POLICY": _policy,
}


def _build(exp_id: str, inputs: dict) -> dict:
    """The body of ``experiment:<exp_id>``: the builder, over its two seeds."""
    built = EXPERIMENTS[exp_id](inputs["dataset"], inputs["timeline"])
    return {f"experiment:{exp_id}": built}


def run_experiment(exp_id: str, result: PipelineResult) -> tuple[Any, str]:
    """Run one experiment by DESIGN.md id: ``(payload, text)``.

    The experiment is the engine node ``experiment:<exp_id>``: its
    inputs are the run's ``dataset`` and ``timeline``, its one output
    the builder's ``(payload, text)``, and its version the digest of the
    package source, so a code edit misses every stored experiment.  It
    runs with the result's dataset and timeline as seeds
    (:meth:`PipelineResult.engine_seeds`) and outside the caller's
    observability context, so reading an experiment never changes a
    run's metrics or events.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    node = StageNode(
        f"experiment:{exp_id}",
        _build,
        inputs=("dataset", "timeline"),
        version=source_digest(),
    )
    seeds, seed_digests, engine = result.engine_seeds()
    graph = StageGraph(nodes=[node], seed_artifacts=tuple(seeds))
    with _obs_use(None):
        run = run_dag(
            graph,
            exp_id,
            seeds=seeds,
            seed_digests=seed_digests,
            engine=engine,
            want=(node.name,),
        )
    return run[node.name]
