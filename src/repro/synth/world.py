"""World orchestration: population → papers → committees → careers →
profiles → citations → timeline.

:func:`build_world` is a pure function of :class:`WorldConfig`: the same
config always yields the same world, byte for byte, because every random
decision derives from a named stream under the config's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.calibration.targets import (
    CONFERENCES_2017,
    TOTALS,
    validate_targets,
)
from repro.confmodel.conference import Conference, ConferenceEdition
from repro.confmodel.entities import Paper, Person
from repro.confmodel.policies import DiversityPolicy, ReviewPolicy
from repro.confmodel.registry import WorldRegistry
from repro.confmodel.roles import Role
from repro.gender.model import Gender
from repro.gender.webevidence import EvidenceKind
from repro.scholar.citations import accrue_citations
from repro.scholar.gscholar import GoogleScholarStore, GSProfile
from repro.scholar.metrics import i10_index
from repro.scholar.semanticscholar import S2Record, SemanticScholarStore
from repro.synth.careers import (
    CareerModel,
    gs_reported_publications,
    s2_reported_publications,
)
from repro.synth.citegen import draw_attractiveness
from repro.synth.config import WorldConfig
from repro.synth.contact import make_affiliation, make_email
from repro.synth.papers import build_papers, draw_conference_slates, tag_hpc_papers
from repro.synth.committees import staff_committees
from repro.synth.population import PersonSpec, PopulationBuilder
from repro.synth.timeline import TimelineEdition, build_timeline
from repro.util.rng import RngStream

__all__ = ["SyntheticWorld", "build_world"]

_YEAR = 2017


@dataclass
class SyntheticWorld:
    """Everything a pipeline run needs, plus the ground truth.

    The pipeline consumes only the *observable* members (registry
    structure as serialized by the harvest layer, the GS/S2 stores, the
    evidence availability); the ground-truth members (true genders) are
    for verification.
    """

    config: WorldConfig
    registry: WorldRegistry
    gs_store: GoogleScholarStore
    s2_store: SemanticScholarStore
    evidence_availability: dict[str, EvidenceKind]
    true_genders: dict[str, Gender]
    timeline: list[TimelineEdition] = field(default_factory=list)
    outlier_paper_id: str | None = None

    @property
    def seed(self) -> int:
        return self.config.seed


def _edition_for(target, year: int, scale_fn=lambda n: n) -> ConferenceEdition:
    conf = Conference(
        name=target.name,
        country_code="GB" if target.country == "UK" else target.country,
        review_policy=(
            ReviewPolicy.DOUBLE_BLIND if target.double_blind else ReviewPolicy.SINGLE_BLIND
        ),
        diversity=DiversityPolicy(
            diversity_chair=target.diversity_chair,
            code_of_conduct=target.code_of_conduct,
            childcare=target.childcare,
            demographic_reporting=target.demographic_reporting,
        ),
    )
    accepted = scale_fn(target.papers)
    return ConferenceEdition(
        conference=conf,
        year=year,
        date=target.date,
        acceptance_rate=target.acceptance_rate,
        submitted=max(accepted, round(accepted / target.acceptance_rate)),
    )


def build_world(
    config: WorldConfig | None = None,
    targets=None,
    *,
    year: int = _YEAR,
    rng_path: tuple = ("world",),
    population_plan=None,
) -> SyntheticWorld:
    """Build the full synthetic world for the given configuration.

    Parameters
    ----------
    config:
        World configuration (seed, scale, rates).
    targets:
        Conference target list; defaults to the paper's nine 2017
        conferences.  Passing a custom list (e.g. from
        :mod:`repro.universe`) builds a world for those conferences, with
        pool sizes derived from the targets via
        :func:`repro.synth.population.plan_from_targets`.
    year:
        Edition year stamped on conferences, papers, and roles.
    rng_path:
        Root path of the world's named rng tree.  Shard builds pass a
        per-shard path (e.g. ``("shard", conf, year)``) so each shard is
        a pure, independent function of ``(seed, shard identity)``.
    population_plan:
        Explicit :class:`repro.synth.population.PopulationPlan` override;
        defaults to ``plan_from_targets(targets)`` for custom target
        lists.  Single-shard builds pass repeat factors of 1.0 because a
        one-edition pool has no cross-conference overlap to discount.
    """
    from repro.synth.population import plan_from_targets

    cfg = config or WorldConfig()
    custom = targets is not None
    if not custom:
        validate_targets()
        targets = list(CONFERENCES_2017)
    else:
        targets = list(targets)
        if not targets:
            raise ValueError("targets must be a nonempty conference list")
    stream = RngStream(cfg.seed, tuple(rng_path))

    # ---- population ------------------------------------------------------
    plan = population_plan
    if plan is None and custom:
        plan = plan_from_targets(targets)
    pop = PopulationBuilder(cfg, stream, plan=plan).build()
    everyone = pop.everyone()
    spec_by_id = {p.person_id: p for p in everyone}

    # ---- registry skeleton ------------------------------------------------
    registry = WorldRegistry()
    for t in targets:
        registry.add_edition(_edition_for(t, year, cfg.scaled))

    # ---- papers ------------------------------------------------------------
    slate_rng = stream.child("slates").generator()
    slates = draw_conference_slates(targets, pop.authors, cfg.scaled, slate_rng)
    papers: list[Paper] = []
    for t in targets:
        prng = stream.child("papers", t.name).generator()
        papers.extend(
            build_papers(t, slates[t.name], year, cfg.scaled, prng, paper_id_start=0)
        )

    # HPC tagging (§4.1): the paper tags 178 of 518 papers; custom
    # universes tag the same fraction of their own paper count.
    tag_rng = stream.child("hpc-tags").generator()
    hpc_fraction = TOTALS["hpc_papers"] / TOTALS["papers"]
    hpc_count = (
        cfg.scaled(TOTALS["hpc_papers"])
        if not custom
        else min(len(papers), int(round(len(papers) * hpc_fraction)))
    )
    tag_hpc_papers(papers, spec_by_id, hpc_count, tag_rng)

    # ---- committees --------------------------------------------------------
    c_rng = stream.child("committees").generator()
    roles = staff_committees(targets, pop.pc_members, year, cfg.scaled, c_rng)

    # anyone staffed who was PC-pool gets is_pc already; visible-only people
    # may come from the pc pool as well, nothing to update.

    # ---- careers -----------------------------------------------------------
    career_rng = stream.child("careers").generator()
    model = CareerModel(career_rng)
    careers = {}
    for p in everyone:
        kind = "pc" if p.is_pc else "author"
        careers[p.person_id] = model.draw_career(kind, p.gender)

    # ---- persons into registry ----------------------------------------------
    contact_rng = stream.child("contact").generator()
    email_flags = contact_rng.random(len(everyone)) < cfg.email_rate
    for i, p in enumerate(everyone):
        career = careers[p.person_id]
        affiliation = make_affiliation(p.sector, p.country_code, contact_rng)
        email = (
            make_email(p.full_name, p.sector, p.country_code, contact_rng)
            if p.is_author and email_flags[i]
            else None
        )
        registry.add_person(
            Person(
                person_id=p.person_id,
                full_name=p.full_name,
                country_code=p.country_code or "",
                sector=p.sector,
                true_gender=Gender(p.gender),
                web_evidence=p.evidence,
                past_publications=career.past_publications,
                career_citations=list(career.citation_vector),
                email=email,
                affiliation=affiliation,
            )
        )

    for paper in papers:
        registry.add_paper(paper)
    for r in roles:
        registry.add_role(r)

    # ---- scholar stores ------------------------------------------------------
    gs_store = GoogleScholarStore()
    s2_store = SemanticScholarStore()
    gs_rng = stream.child("gscholar").generator()
    # GS coverage: overall ~68.3%, increasing with experience.  Draw a
    # propensity from band: experienced 0.88, mid 0.75, novice 0.52 —
    # these average to ≈0.68-0.70 over the realized band mix.
    gs_prob = {"experienced": 0.87, "mid-career": 0.74, "novice": 0.50}
    for p in everyone:
        career = careers[p.person_id]
        if gs_rng.random() < gs_prob[career.band]:
            vec = np.array(career.citation_vector, dtype=np.int64)
            gs_store.add(
                GSProfile(
                    profile_id=f"gs-{p.person_id}",
                    display_name=p.full_name,
                    affiliation=registry.people[p.person_id].affiliation,
                    publications=gs_reported_publications(
                        career.past_publications, gs_rng
                    ),
                    # equals h_index(vec): CareerModel builds the vector
                    # to its target h (and asserts it)
                    h_index=career.h_index,
                    i10_index=i10_index(vec) if vec.size else 0,
                    citations=int(vec.sum()),
                )
            )
        if p.is_author:
            s2_store.put(
                p.person_id,
                S2Record(
                    author_id=f"s2-{p.person_id}",
                    display_name=p.full_name,
                    publications=s2_reported_publications(
                        career.past_publications, gs_rng
                    ),
                ),
            )

    # ---- paper citations (Fig. 2) ---------------------------------------------
    cite_rng = stream.child("citations").generator()
    lead_genders = [spec_by_id[p.first_author].gender for p in papers]
    # The Fig. 2 outlier must be *observably* female-led, so restrict the
    # choice to leads with manual web evidence (their inferred gender will
    # be known to the pipeline).
    female_led = [
        i
        for i, g in enumerate(lead_genders)
        if g == "F"
        and spec_by_id[papers[i].first_author].evidence is not EvidenceKind.NONE
    ]
    outlier_idx = int(female_led[int(cite_rng.integers(len(female_led)))]) if female_led else None
    lam = draw_attractiveness(lead_genders, cite_rng, outlier_index=outlier_idx)
    histories = accrue_citations(lam, cite_rng, months=48, normalize_months=36)
    for paper, hist in zip(papers, histories):
        paper.citation_monthly = [int(x) for x in hist.monthly]
        paper.citations_36mo = hist.total_at(36)
    outlier_paper_id = papers[outlier_idx].paper_id if outlier_idx is not None else None

    # ---- evidence / truth maps ---------------------------------------------------
    evidence = {p.person_id: p.evidence for p in everyone}
    truth = {p.person_id: Gender(p.gender) for p in everyone}

    # ---- timeline (SC/ISC case study; paper's conference set only) --------
    timeline: list[TimelineEdition] = []
    if cfg.include_timeline and not custom:
        timeline = build_timeline(cfg.scaled, stream.child("timeline").generator())

    registry.validate()
    return SyntheticWorld(
        config=cfg,
        registry=registry,
        gs_store=gs_store,
        s2_store=s2_store,
        evidence_availability=evidence,
        true_genders=truth,
        timeline=timeline,
        outlier_paper_id=outlier_paper_id,
    )
