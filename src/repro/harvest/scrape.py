"""Scraping the generated conference websites back into records.

This is the inverse of :mod:`repro.harvest.sitegen` and the entry point
of the analysis pipeline: from here on, nothing reads the ground truth.
The scraper is defensive — missing sections yield empty lists, malformed
numbers yield ``None`` — because the round-trip tests inject exactly
those malformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harvest.html import HtmlParseError, parse_html
from repro.harvest.proceedings import ProceedingsRecord
from repro.harvest.sitegen import ConferenceSite
from repro.names.parsing import clean_person_name

__all__ = ["HarvestedRole", "HarvestedPaper", "HarvestedConference", "scrape_site"]


@dataclass(frozen=True)
class HarvestedRole:
    """A name observed in a role on a conference page."""

    full_name: str
    role: str  # sitegen's css class: pc-chair, pc-member, keynote, ...


@dataclass(frozen=True)
class HarvestedPaper:
    """A paper as observed on the accepted-papers page + proceedings."""

    paper_id: str
    title: str
    author_names: tuple[str, ...]
    author_emails: tuple[str | None, ...]  # aligned with author_names
    citations_36mo: int | None
    is_hpc_topic: bool | None


@dataclass
class HarvestedConference:
    """Everything scraped for one conference edition."""

    conference: str
    year: int
    date: str | None = None
    country: str | None = None
    accepted: int | None = None
    submitted: int | None = None
    review_policy: str | None = None
    diversity_policies: tuple[str, ...] = ()
    roles: list[HarvestedRole] = field(default_factory=list)
    papers: list[HarvestedPaper] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float | None:
        # None means *missing data*; a real zero-accept edition is 0.0.
        if self.accepted is None or self.submitted is None or self.submitted == 0:
            return None
        return self.accepted / self.submitted


_ROLE_CLASSES = ("pc-chair", "pc-member", "keynote", "panelist", "session-chair")


def _maybe_int(text: str | None) -> int | None:
    if text is None:
        return None
    try:
        return int(text.strip())
    except ValueError:
        return None


def _first_text(root, cls: str) -> str | None:
    node = root.find(cls=cls)
    return node.text() if node is not None else None


def _safe_parse(page: str):
    """Parse a page; a syntactically broken one reads as empty."""
    try:
        return parse_html(page)
    except HtmlParseError:
        return parse_html("")


def _role_items(root) -> dict[str, list]:
    """``li`` nodes per role class, in ``_ROLE_CLASSES`` then document order."""
    buckets: dict[str, list] = {cls: [] for cls in _ROLE_CLASSES}
    for node in root.iter():
        if node.tag != "li":
            continue
        for cls in dict.fromkeys(node.attrs.get("class", "").split()):
            bucket = buckets.get(cls)
            if bucket is not None:
                bucket.append(node)
    return buckets


def _email_between_brackets(line: str) -> str | None:
    """The address in a ``Name <addr>`` contact line, if well-formed.

    Scanned headers routinely lose characters; a line with ``<`` but no
    closing ``>`` (or with the brackets inverted) is malformed and
    yields no email rather than an exception.
    """
    lo = line.find("<")
    hi = line.rfind(">")
    if lo == -1 or hi == -1 or hi <= lo:
        return None
    return line[lo + 1 : hi]


def scrape_site(
    site: ConferenceSite, proceedings: list[ProceedingsRecord] | None = None
) -> HarvestedConference:
    """Parse a conference site (+ optional proceedings) into records."""
    out = HarvestedConference(conference=site.conference, year=site.year)

    # ---- index ------------------------------------------------------------
    index = _safe_parse(site.index_html)
    out.date = _first_text(index, "conf-date")
    out.country = _first_text(index, "conf-country")
    out.accepted = _maybe_int(_first_text(index, "conf-accepted"))
    out.submitted = _maybe_int(_first_text(index, "conf-submitted"))
    out.review_policy = _first_text(index, "conf-review-policy")
    out.diversity_policies = tuple(
        n.text() for n in index.find_all(cls="diversity-policy")
    )

    # ---- roles --------------------------------------------------------------
    for page in (site.committees_html, site.program_html):
        for cls, nodes in _role_items(_safe_parse(page)).items():
            for node in nodes:
                # scrub NBSP/zero-width junk *before* the name becomes a
                # record: identity resolution keys on this string, and one
                # invisible character would split a person in two
                name = clean_person_name(node.text())
                if name:
                    out.roles.append(HarvestedRole(full_name=name, role=cls))

    # ---- papers ----------------------------------------------------------------
    papers_root = _safe_parse(site.papers_html)
    by_id = {r.paper_id: r for r in (proceedings or [])}
    for node in papers_root.find_all(cls="paper"):
        title = _first_text(node, "paper-title") or ""
        pid = _first_text(node, "paper-id") or ""
        # raw spellings match the proceedings header lines; the cleaned
        # spellings are what downstream identity resolution keys on
        raw_names = tuple(a.text() for a in node.find_all(tag="li", cls="paper-author"))
        names = tuple(clean_person_name(n) for n in raw_names)
        rec = by_id.get(pid)
        emails: tuple[str | None, ...]
        if rec is not None:
            found = {}
            for line in rec.fulltext_header.splitlines():
                # contact lines carry an address; skipping the rest
                # avoids cleaning every header line per author
                if "<" not in line or "@" not in line:
                    continue
                email = _email_between_brackets(line)
                if email is None:
                    continue
                # clean once per line, not once per line x author
                cleaned = clean_person_name(line)
                for raw, name in zip(raw_names, names):
                    if line.startswith(raw) or cleaned.startswith(name):
                        found[name] = email
            emails = tuple(found.get(n) for n in names)
        else:
            emails = tuple(None for _ in names)
        out.papers.append(
            HarvestedPaper(
                paper_id=pid,
                title=title,
                author_names=names,
                author_emails=emails,
                citations_36mo=rec.citations_36mo if rec else None,
                is_hpc_topic=rec.is_hpc_topic if rec else None,
            )
        )
    return out
