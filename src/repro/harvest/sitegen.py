"""Conference website generation from the ground-truth world.

Each conference edition becomes four pages mirroring the structure the
original study scraped:

- ``index.html``      — dates, host country, acceptance statistics,
  review policy, advertised diversity policies;
- ``committees.html`` — PC chairs and PC members (names only, like real
  committee pages);
- ``program.html``    — keynote speakers, panelists, session chairs;
- ``papers.html``     — accepted papers with ordered author lists.

Emails are *not* on the website — they live in the proceedings full text
(:mod:`repro.harvest.proceedings`), exactly as in the paper's
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.confmodel.registry import WorldRegistry
from repro.confmodel.roles import Role
from repro.harvest.html import escape

__all__ = ["ConferenceSite", "generate_site"]


@dataclass(frozen=True)
class ConferenceSite:
    """The generated pages of one conference edition (rendered HTML)."""

    conference: str
    year: int
    index_html: str
    committees_html: str
    program_html: str
    papers_html: str


# The pages are emitted as text in one pass: the markup below is exactly
# what ``render`` gives for the equivalent ``el`` tree (the class names are
# constants with nothing to escape), without building a ~25k-node tree per
# edition and walking it back.  ``tests/test_fast_path_equivalence.py``
# holds the tree-building body as the oracle.


def _page(title: str, *body: str) -> str:
    t = escape(title)
    return (
        f"<html><head><title>{t}</title></head><body><h1>{t}</h1>"
        f"{''.join(body)}</body></html>"
    )


def _tag(tag: str, cls: str, text: str) -> str:
    return f'<{tag} class="{cls}">{escape(text)}</{tag}>'


def _name_list(cls: str, names: list[str]) -> str:
    items = "".join([f'<li class="{cls}">{escape(n)}</li>' for n in names])
    return f'<ul class="{cls}-list">{items}</ul>'


def generate_site(registry: WorldRegistry, conference: str, year: int) -> ConferenceSite:
    """Render one conference edition's website."""
    key = f"{conference}-{year}"
    edition = registry.editions[key]
    conf = edition.conference

    # ---- index -----------------------------------------------------------
    policies = []
    d = conf.diversity
    if d.diversity_chair:
        policies.append("Diversity & Inclusivity Chair")
    if d.code_of_conduct:
        policies.append("Code of Conduct")
    if d.childcare:
        policies.append("On-site childcare")
    if d.demographic_reporting:
        policies.append("Demographic reporting")
    index = _page(
        f"{conference} {year}",
        _tag("p", "conf-date", edition.date),
        _tag("p", "conf-country", conf.country_code),
        _tag("p", "conf-accepted", f"{edition.accepted}"),
        _tag("p", "conf-submitted", f"{edition.submitted}"),
        _tag("p", "conf-review-policy", conf.review_policy.value),
        '<div class="diversity-policies">',
        *[_tag("span", "diversity-policy", p) for p in policies],
        "</div>",
    )

    # ---- committees --------------------------------------------------------
    # one pass over the edition's roles, bucketed by role in registry
    # order: the lists ``registry.roles_of(conference, year, role)`` gives
    names_by_role: dict[Role, list[str]] = {r: [] for r in Role}
    people = registry.people
    for r in registry.roles:
        if r.conference == conference and r.year == year:
            names_by_role[r.role].append(people[r.person_id].full_name)

    committees = _page(
        f"{conference} {year} Committees",
        "<h2>Program Committee Chairs</h2>",
        _name_list("pc-chair", names_by_role[Role.PC_CHAIR]),
        "<h2>Program Committee</h2>",
        _name_list("pc-member", names_by_role[Role.PC_MEMBER]),
    )

    # ---- program -------------------------------------------------------------
    program = _page(
        f"{conference} {year} Program",
        "<h2>Keynote Speakers</h2>",
        _name_list("keynote", names_by_role[Role.KEYNOTE]),
        "<h2>Panelists</h2>",
        _name_list("panelist", names_by_role[Role.PANELIST]),
        "<h2>Session Chairs</h2>",
        _name_list("session-chair", names_by_role[Role.SESSION_CHAIR]),
    )

    # ---- papers ----------------------------------------------------------------
    items = []
    for paper in registry.papers_of(conference, year):
        authors = "".join(
            [
                f'<li class="paper-author">{escape(people[a.person_id].full_name)}</li>'
                for a in paper.authorships
            ]
        )
        items.append(
            f'<div class="paper">{_tag("span", "paper-title", paper.title)}'
            f'{_tag("span", "paper-id", paper.paper_id)}'
            f'<ol class="paper-authors">{authors}</ol></div>'
        )
    papers = _page(f"{conference} {year} Accepted Papers", *items)

    return ConferenceSite(
        conference=conference,
        year=year,
        index_html=index,
        committees_html=committees,
        program_html=program,
        papers_html=papers,
    )
