"""The rewritten hot-path functions agree with their old bodies.

Each ``_old_*`` below is a verbatim copy of the implementation its fast
path replaced (ASCII short-cut in ``name_key``, per-type classification
in ``infer_dtype``, prefix count in ``h_index``, text emission in
``generate_site``, the parse loop of ``parse_html``, the one walk per
paper node in ``scrape_site``, the column build of
``AnalysisDataset.build``, the planned sweeps of ``ipf_fit``, the role
tables of ``_country_gender_cells``, the career vector and its h check,
the per-row gender lookups of ``with_assignments`` and
``reassign_unknowns``);
hypothesis and generated sites drive both over inputs chosen to hit the
edges the fast paths skip.  ``make golden`` runs this module with the
world and pipeline digest guards.
"""

import dataclasses
import re
import unicodedata
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.names.parsing import clean_person_name, name_key, normalize_name
from repro.scholar.metrics import h_index
from repro.tabular.column import Column, infer_dtype

# ------------------------------------------------------------- old bodies

_WS = re.compile(r"\s+")


def _old_name_key(full_name: str) -> str:
    decomposed = unicodedata.normalize("NFKD", _WS.sub(" ", full_name).strip())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()


def _old_infer_dtype(values) -> str:
    saw_float = saw_int = saw_bool = saw_str = saw_none = False
    for v in values:
        if v is None:
            saw_none = True
        elif isinstance(v, (bool, np.bool_)):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            saw_float = True
        else:
            saw_str = True
    if saw_str:
        return "str"
    if saw_float:
        return "float"
    if saw_int:
        return "float" if saw_none else "int"
    if saw_bool:
        return "float" if saw_none else "bool"
    return "str"


def _old_h_index(citations) -> int:
    c = np.asarray(citations, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError("citations must be a 1-D vector of counts")
    if np.any(c < 0):
        raise ValueError("citation counts must be nonnegative")
    if c.size == 0:
        return 0
    desc = np.sort(c)[::-1]
    ranks = np.arange(1, desc.size + 1)
    ok = desc >= ranks
    return int(ranks[ok][-1]) if ok.any() else 0


# ------------------------------------------------------------- name_key

_NAME_CHARS = st.sampled_from(
    list("abcXYZ .-'") + ["\t", "\n", " ", " ", "é", "ñ", "ø", "ß", "ﬁ", "Å",
                          "́", "̈", "Ł", "李", "ｱ", "①", "²"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NAME_CHARS, max_size=24).map("".join))
def test_name_key_matches_old_body(name):
    assert name_key(name) == _old_name_key(name)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_name_key_matches_old_body_on_any_text(name):
    assert name_key(name) == _old_name_key(name)


# ----------------------------------------------------------- infer_dtype


class _MyInt(int):
    pass


class _MyFloat(float):
    pass


class _MyStr(str):
    pass


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-5, 5),
    st.integers(-5, 5).map(np.int64),
    st.integers(0, 5).map(np.uint8),
    st.integers(-5, 5).map(_MyInt),
    st.floats(allow_nan=True),
    st.floats(-1, 1).map(np.float32),
    st.floats(-1, 1).map(_MyFloat),
    st.text(max_size=3),
    st.text(max_size=3).map(_MyStr),
    st.just(("tuple",)),
    st.just(b"bytes"),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, max_size=12))
def test_infer_dtype_matches_old_body(values):
    assert infer_dtype(values) == _old_infer_dtype(values)


# --------------------------------------------------------------- h_index


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=80))
def test_h_index_matches_old_body(citations):
    assert h_index(citations) == _old_h_index(citations)
    assert h_index(np.asarray(citations, dtype=np.int64)) == _old_h_index(citations)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_h_index_matches_old_body_on_geometric_vectors(seed, n):
    vec = np.random.default_rng(seed).geometric(0.05, size=n) - 1
    assert h_index(vec) == _old_h_index(vec)


@pytest.mark.parametrize("bad", [[1, -1], [[1, 2]], [-3]])
def test_h_index_rejects_what_the_old_body_rejects(bad):
    with pytest.raises(ValueError):
        _old_h_index(bad)
    with pytest.raises(ValueError):
        h_index(bad)


# ------------------------------------------------------ career h check


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 60), max_size=40), max_size=6), st.data())
def test_h_identity_matches_h_index(vectors, data):
    from repro.synth.careers import has_h_index

    lengths = np.array([len(v) for v in vectors], dtype=np.int64)
    flat = np.array([x for v in vectors for x in v], dtype=np.int64)
    # per vector: its index, or another candidate in 0..len+1
    truth = [h_index(v) for v in vectors]
    h = np.array(
        [data.draw(st.sampled_from([t, *range(len(v) + 2)])) for v, t in zip(vectors, truth)],
        dtype=np.int64,
    )
    assert has_h_index(flat, lengths, h).tolist() == [c == t for c, t in zip(h.tolist(), truth)]


def _old_citation_vector(self, h: int, pubs: int) -> np.ndarray:
    r = self._rng
    if pubs == 0:
        return np.zeros(0, dtype=np.int64)
    if h == 0:
        # every paper strictly below 1 citation is impossible to get
        # wrong: all zeros
        return np.zeros(pubs, dtype=np.int64)
    # Top h papers: h + overshoot, decaying. Overshoot gives the heavy
    # right tail seen in Figs. 3-4.
    overshoot = r.geometric(p=0.08, size=h)
    overshoot.sort()
    top = overshoot[::-1] + h
    rest_n = pubs - h
    if rest_n > 0:
        # Strictly below h citations each, skewed toward 0, and below
        # h so they cannot raise the index. Cap also at h-1.
        rest = r.geometric(p=max(0.15, 2.0 / (h + 2)), size=rest_n)
        rest -= 1
        np.minimum(rest, h - 1, out=rest)
        vec = np.concatenate([top, rest])
    else:
        vec = top
    assert h_index(vec) == h, (h, pubs, vec[:10])
    return vec


def _old_draw_career(self, role_kind: str, gender: str):
    band = self.draw_band(role_kind, gender)
    h = self.draw_h(band)
    pubs = self._pubs_for_h(h)
    vector = _old_citation_vector(self, h, pubs)
    return band, h, pubs, tuple(vector.tolist())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_careers_match_old_body_and_stream(seed, n):
    from repro.scholar.metrics import i10_index
    from repro.synth.careers import CareerModel

    new, old = (CareerModel(np.random.default_rng(seed)) for _ in range(2))
    people = [("pc" if i % 3 == 0 else "author", "F" if i % 4 == 0 else "M") for i in range(n)]
    # one batch, as the world build draws them, then one more on its own
    careers = new.draw_careers(people) + [new.draw_career("pc", "F")]
    for (kind, gender), career in zip(people + [("pc", "F")], careers):
        band, h, pubs, vector = _old_draw_career(old, kind, gender)
        assert (career.band, career.h_index, career.past_publications) == (band, h, pubs)
        assert career.vector.dtype == np.int64
        assert career.vector.tolist() == list(vector)
        # the values the world build used to derive for the GS store
        vec = np.array(vector, dtype=np.int64)
        assert career.i10 == (i10_index(vec) if vec.size else 0)
        assert career.citations == int(vec.sum())
    # the same draws were made: both generators are in the same state
    assert new._rng.random() == old._rng.random()


# --------------------------------------------------- name normalization

_WS = re.compile(r"\s+")
_ZERO_WIDTH = re.compile("[\u200b\u200c\u200d\u2060\ufeff\u00ad]")


def _old_normalize_name(name: str) -> str:
    return _WS.sub(" ", name).strip()


def _old_clean_person_name(name: str) -> str:
    return _old_normalize_name(_ZERO_WIDTH.sub("", name))


_SPACY = st.sampled_from(
    list("ab C.-")
    + ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2009",
       "\u3000", "\u2028", "\u200b", "\u200d", "\ufeff", "\u00ad", "\u00e9", "\u674e"]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_SPACY, max_size=20).map("".join), st.text(max_size=20)))
def test_name_normalization_matches_old_bodies(name):
    assert normalize_name(name) == _old_normalize_name(name)
    assert clean_person_name(name) == _old_clean_person_name(name)


# --------------------------------------------------------- is_missing


def _old_is_missing(col: Column) -> np.ndarray:
    if col.kind == "float":
        return np.isnan(col.values)
    if col.kind == "str":
        return np.array([v is None for v in col.values], dtype=bool)
    return np.zeros(len(col), dtype=bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=3), st.floats(), st.integers(-3, 3)),
                max_size=12))
def test_is_missing_matches_old_body(values):
    for col in (Column("c", values), Column("c", values, kind="str")):
        new = col.is_missing()
        assert new.dtype == np.bool_ and new.shape == (len(values),)
        assert new.tolist() == _old_is_missing(col).tolist()


# ----------------------------------------------------------- harvest

from repro.confmodel.registry import WorldRegistry  # noqa: E402
from repro.confmodel.roles import Role  # noqa: E402
from repro.harvest import html as _html  # noqa: E402
from repro.harvest.html import HtmlElement, HtmlParseError, el, parse_html, render  # noqa: E402
from repro.harvest.proceedings import build_proceedings  # noqa: E402
from repro.harvest.scrape import (  # noqa: E402
    HarvestedConference,
    HarvestedPaper,
    HarvestedRole,
    _email_between_brackets,
    _maybe_int,
    _role_items,
    scrape_site,
)
from repro.harvest.sitegen import ConferenceSite, generate_site  # noqa: E402


def _old_page(title: str, *body: HtmlElement) -> str:
    doc = el(
        "html",
        el("head", el("title", title)),
        el("body", el("h1", title), *body),
    )
    return render(doc)


def _old_name_list(cls: str, names: list[str]) -> HtmlElement:
    return el("ul", *[el("li", n, cls=cls) for n in names], cls=f"{cls}-list")


def _old_generate_site(registry: WorldRegistry, conference: str, year: int) -> ConferenceSite:
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
    index = _old_page(
        f"{conference} {year}",
        el("p", edition.date, cls="conf-date"),
        el("p", conf.country_code, cls="conf-country"),
        el("p", f"{edition.accepted}", cls="conf-accepted"),
        el("p", f"{edition.submitted}", cls="conf-submitted"),
        el("p", conf.review_policy.value, cls="conf-review-policy"),
        el(
            "div",
            *[el("span", p, cls="diversity-policy") for p in policies],
            cls="diversity-policies",
        ),
    )

    # ---- committees --------------------------------------------------------
    def names_for(role: Role) -> list[str]:
        return [
            registry.people[r.person_id].full_name
            for r in registry.roles_of(conference, year, role)
        ]

    committees = _old_page(
        f"{conference} {year} Committees",
        el("h2", "Program Committee Chairs"),
        _old_name_list("pc-chair", names_for(Role.PC_CHAIR)),
        el("h2", "Program Committee"),
        _old_name_list("pc-member", names_for(Role.PC_MEMBER)),
    )

    # ---- program -------------------------------------------------------------
    program = _old_page(
        f"{conference} {year} Program",
        el("h2", "Keynote Speakers"),
        _old_name_list("keynote", names_for(Role.KEYNOTE)),
        el("h2", "Panelists"),
        _old_name_list("panelist", names_for(Role.PANELIST)),
        el("h2", "Session Chairs"),
        _old_name_list("session-chair", names_for(Role.SESSION_CHAIR)),
    )

    # ---- papers ----------------------------------------------------------------
    items = []
    for paper in registry.papers_of(conference, year):
        authors = [
            registry.people[a.person_id].full_name for a in paper.authorships
        ]
        items.append(
            el(
                "div",
                el("span", paper.title, cls="paper-title"),
                el("span", paper.paper_id, cls="paper-id"),
                el(
                    "ol",
                    *[el("li", n, cls="paper-author") for n in authors],
                    cls="paper-authors",
                ),
                cls="paper",
            )
        )
    papers = _old_page(f"{conference} {year} Accepted Papers", *items)

    return ConferenceSite(
        conference=conference,
        year=year,
        index_html=index,
        committees_html=committees,
        program_html=program,
        papers_html=papers,
    )


def _old_parse_html(text: str) -> HtmlElement:
    """Parse HTML text into a tree rooted at a synthetic ``#root``.

    Raises :class:`HtmlParseError` on mismatched close tags.  Unclosed
    tags at EOF are tolerated (auto-closed), as real scrapers must.
    """
    _TOKEN, _ATTR, _VOID_TAGS, unescape = _html._TOKEN, _html._ATTR, _html._VOID_TAGS, _html.unescape
    root = HtmlElement("#root")
    stack: list[HtmlElement] = [root]
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            # stray '<' that matched nothing — treat as text
            stack[-1].children.append(text[pos : m.start()])
        pos = m.end()
        close_tag, open_tag, attr_text, self_close, raw_text = m.groups()
        if raw_text is not None:
            # whitespace-only text *inside* an element is content and
            # must survive a render/parse roundtrip; at document level
            # it is formatting and is dropped
            if raw_text.strip() or len(stack) > 1:
                stack[-1].children.append(unescape(raw_text))
        elif open_tag is not None:
            tag = open_tag.lower()
            attrs = (
                {k: unescape(v) for k, v in _ATTR.findall(attr_text)} if attr_text else {}
            )
            node = HtmlElement(tag, attrs)
            stack[-1].children.append(node)
            if not self_close and tag not in _VOID_TAGS:
                stack.append(node)
        elif close_tag is not None:
            name = close_tag.lower()
            if stack[-1].tag == name:  # the well-formed case
                stack.pop()
                continue
            # pop until match; tolerate interleaving by auto-closing
            names = [n.tag for n in stack[1:]]
            if name not in names:
                raise HtmlParseError(f"unmatched closing tag </{name}>")
            while stack[-1].tag != name:
                stack.pop()
            stack.pop()
    if pos != len(text) and text[pos:].strip():
        stack[-1].children.append(text[pos:])
    return root


def _old_text(self) -> str:
    """Concatenated text of the subtree, whitespace-normalized."""
    parts: list[str] = []
    stack: list["HtmlElement | str"] = [self]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        else:
            stack.extend(reversed(node.children))
    return _WS.sub(" ", "".join(parts)).strip()


def _old_first_text(root, cls: str) -> str | None:
    node = root.find(cls=cls)
    return node.text() if node is not None else None


def _old_safe_parse(page: str):
    """Parse a page; a syntactically broken one reads as empty."""
    try:
        return _old_parse_html(page)
    except HtmlParseError:
        return _old_parse_html("")


def _old_scrape_site(site, proceedings=None) -> HarvestedConference:
    """Parse a conference site (+ optional proceedings) into records."""
    clean_person_name = _old_clean_person_name
    _first_text, _safe_parse = _old_first_text, _old_safe_parse
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


def _tree_events(root: HtmlElement) -> list:
    """A tree as a flat pre-order event list (iterative: trees can be deep)."""
    events: list = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node is None:
            events.append(("close",))
        elif isinstance(node, str):
            events.append(("text", node))
        else:
            events.append(("open", node.tag, tuple(node.attrs.items())))
            stack.append(None)
            stack.extend(reversed(node.children))
    return events


def _parse_both(page: str):
    """(new, old) parse outcomes: an event list, or the error raised."""
    out = []
    for parse in (parse_html, _old_parse_html):
        try:
            out.append(_tree_events(parse(page)))
        except HtmlParseError as exc:
            out.append(("error", str(exc)))
    return out


def _all_elements(root: HtmlElement) -> list[HtmlElement]:
    return list(root.iter())


@pytest.fixture(scope="module")
def harvest_worlds(small_world):
    from repro.synth import WorldConfig, build_world
    from repro.synth.population import plan_from_targets
    from repro.synth.shards import ShardPlan

    config = WorldConfig(seed=5, scale=0.5, years=(2016, 2017), venues=2)
    shard_cfg = dataclasses.replace(config, years=(), venues=0, include_timeline=False)
    worlds = [small_world]
    for spec in ShardPlan.from_config(config).shards[:2]:
        worlds.append(
            build_world(
                shard_cfg,
                targets=[spec.target],
                year=spec.year,
                rng_path=("shard", spec.conference, spec.year),
                population_plan=plan_from_targets([spec.target], author_repeat=1.0, pc_repeat=1.0),
            )
        )
    return worlds


def _editions(worlds):
    for world in worlds:
        for edition in world.registry.editions.values():
            yield world, edition.conference.name, edition.year


def test_sitegen_pages_match_old_tree_render(harvest_worlds):
    for world, conf, year in _editions(harvest_worlds):
        new = generate_site(world.registry, conf, year)
        assert new == _old_generate_site(world.registry, conf, year)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=12), min_size=1, max_size=8), st.text(max_size=12))
def test_sitegen_escapes_like_render(small_world, names, title):
    registry = small_world.registry
    edition = next(iter(registry.editions.values()))
    conf, year = edition.conference.name, edition.year
    paper = registry.papers_of(conf, year)[0]
    # the first holder of each role, committee and program roles included
    holders = {}
    for r in registry.roles:
        if r.conference == conf and r.year == year:
            holders.setdefault(r.role, r.person_id)
    people = [registry.people[pid] for pid in dict.fromkeys(holders.values())][: len(names)]
    saved = [p.full_name for p in people], paper.title
    try:
        for person, name in zip(people, names):
            person.full_name = name
        paper.title = title
        assert generate_site(registry, conf, year) == _old_generate_site(registry, conf, year)
    finally:
        for person, name in zip(people, saved[0]):
            person.full_name = name
        paper.title = saved[1]


def _corrupted_sites(world, conf, year):
    """The site after each corruption operation, under a few cut points."""
    from repro.faults.corrupt import _OPERATIONS

    site = generate_site(world.registry, conf, year)
    proceedings = build_proceedings(world.registry, conf, year)
    yield "clean", site, proceedings
    for tag, op in _OPERATIONS.items():
        for seed in range(3):
            bad_site, bad_proc = op(site, proceedings, np.random.default_rng(seed))
            yield tag, bad_site, bad_proc


def test_parse_and_scrape_match_old_bodies(harvest_worlds):
    for world, conf, year in _editions(harvest_worlds):
        for tag, site, proceedings in _corrupted_sites(world, conf, year):
            for page in (site.index_html, site.committees_html, site.program_html,
                         site.papers_html):
                new, old = _parse_both(page)
                assert new == old, (conf, year, tag)
                if tag == "clean":
                    for node in _all_elements(parse_html(page)):
                        assert node.text() == _old_text(node)
            assert scrape_site(site, proceedings) == _old_scrape_site(site, proceedings), (
                conf, year, tag,
            )


_HTML_BITS = st.sampled_from(
    ["<div>", "</div>", '<p class="x">', "</p>", "<br/>", "<br>", "<li class='a'>",
     '<span a="1" b="2" a="3">', "</span>", "</SPAN>", "<UL>", "</ul>", "text", " ",
     "\n", "&amp;", "&lt;", "&quot;", "<", ">", "< p>", "<3", "<!-- c -->",
     "<!DOCTYPE html>", '<a href="x&amp;y">', "</a>", "<img/>", "</img>", " "]
)


_PAGE_BITS = st.sampled_from(
    ['<div class="paper">', "</div>", '<span class="paper-title">', '<span class="paper-id">',
     '<span class="paper-id paper-title">', "</span>", '<ol class="paper-authors">', "</ol>",
     '<li class="paper-author">', '<li class="paper-author pc-member">', '<li class="keynote">',
     '<p class="paper-author">', "</li>", "</p>", "Ada  Lovelace", "T&amp;itle", "p1", " ",
     "\u200bBo\u00a0Li", "", "<b>", "</b>"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAGE_BITS, max_size=30).map("".join),
       st.lists(_PAGE_BITS, max_size=15).map("".join))
# a paper with two titles and two ids (the first match wins), an author
# list nested in the title, and a paper inside a paper
@example(
    '<div class="paper"><span class="paper-title">First</span>'
    '<span class="paper-id paper-title">p1</span><span class="paper-id">p2</span>'
    '<ol><li class="paper-author">Ada</li></ol></div>',
    "",
)
@example(
    '<div class="paper paper-title"><span class="paper-id"></span><span class="paper-id">p9'
    '</span><li class="paper-author">A<li class="paper-author">B</li></li>'
    '<div class="paper"><span class="paper-title">Inner</span></div></div>',
    '<li class="pc-member keynote">Ada</li>',
)
def test_scrape_matches_old_body_on_fragments(papers_html, committees_html):
    site = ConferenceSite("X", 2017, "", committees_html, "", papers_html)
    assert scrape_site(site) == _old_scrape_site(site)


@settings(max_examples=400, deadline=None)
@given(st.lists(_HTML_BITS, max_size=25).map("".join))
def test_parse_html_matches_old_body_on_fragments(page):
    new, old = _parse_both(page)
    assert new == old
    if new[0] != "error":
        for node in _all_elements(parse_html(page)):
            assert node.text() == _old_text(node)


# ----------------------------------------------------------- dataset

from repro.confmodel.roles import Role as _Role  # noqa: E402
from repro.gender.model import Gender, GenderAssignment  # noqa: E402
from repro.gender.sensitivity import _FORCED, reassign_unknowns  # noqa: E402
from repro.pipeline.dataset import AnalysisDataset, _gender_str  # noqa: E402
from repro.pipeline.enrich import Enrichment  # noqa: E402
from repro.pipeline.link import LinkedData  # noqa: E402
from repro.tabular import Table  # noqa: E402

Role = _Role

def _old_build(
    linked: LinkedData,
    enrichment: dict[str, Enrichment],
    assignments: dict[str, GenderAssignment],
) -> tuple[Table, ...]:
    gender = {rid: _gender_str(assignments.get(rid)) for rid in linked.researchers}

    # ---- researchers ---------------------------------------------------
    rows = []
    for rid, rec in linked.researchers.items():
        e = enrichment.get(rid)
        a = assignments.get(rid)
        rows.append(
            {
                "researcher_id": rid,
                "full_name": rec.full_name,
                "gender": gender[rid],
                "gender_method": (a.method.value if a else "none"),
                "country": e.country_code if e else None,
                "region": e.region if e else None,
                "sector": e.sector if e else None,
                "is_author": rec.is_author,
                "is_pc": rec.is_pc_member,
                "gs_pubs": e.gs_publications if e else None,
                "gs_h": e.gs_h_index if e else None,
                "gs_i10": e.gs_i10 if e else None,
                "gs_citations": e.gs_citations if e else None,
                "s2_pubs": e.s2_publications if e else None,
                "has_gs": bool(e and e.has_gs),
            }
        )
    researchers = Table.from_records(rows)

    # ---- author positions ------------------------------------------------
    pos_rows = []
    conf_author_pairs: dict[tuple[str, str], dict] = {}
    for paper in linked.papers:
        n = len(paper.author_ids)
        for k, rid in enumerate(paper.author_ids):
            pos_rows.append(
                {
                    "paper_id": paper.paper_id,
                    "conference": paper.conference,
                    "year": paper.year,
                    "researcher_id": rid,
                    "position": k,
                    "is_first": k == 0,
                    "is_last": n > 1 and k == n - 1,
                    "gender": gender.get(rid),
                }
            )
            key = (paper.conference, rid)
            if key not in conf_author_pairs:
                e = enrichment.get(rid)
                conf_author_pairs[key] = {
                    "conference": paper.conference,
                    "year": paper.year,
                    "researcher_id": rid,
                    "gender": gender.get(rid),
                    "country": e.country_code if e else None,
                    "region": e.region if e else None,
                    "sector": e.sector if e else None,
                }
    author_positions = Table.from_records(pos_rows)
    conf_authors = Table.from_records(list(conf_author_pairs.values()))

    # ---- papers ------------------------------------------------------------
    paper_rows = []
    for paper in linked.papers:
        first = paper.author_ids[0] if paper.author_ids else None
        last = paper.author_ids[-1] if len(paper.author_ids) > 1 else None
        cites = paper.citations_36mo
        paper_rows.append(
            {
                "paper_id": paper.paper_id,
                "conference": paper.conference,
                "year": paper.year,
                "num_authors": len(paper.author_ids),
                "first_author": first,
                "last_author": last,
                "first_gender": gender.get(first) if first else None,
                "last_gender": gender.get(last) if last else None,
                "citations_36mo": cites,
                "reaches_i10": (cites >= 10) if cites is not None else None,
                "is_hpc": paper.is_hpc_topic,
            }
        )
    papers = Table.from_records(paper_rows)

    # ---- conferences -------------------------------------------------------
    conf_rows = []
    for conf in linked.conferences:
        conf_rows.append(
            {
                "conference": conf.conference,
                "year": conf.year,
                "date": conf.date,
                "country": conf.country,
                "accepted": conf.accepted,
                "submitted": conf.submitted,
                "acceptance_rate": conf.acceptance_rate,
                "double_blind": conf.review_policy == "double",
                "diversity_chair": any(
                    "Chair" in p for p in conf.diversity_policies
                ),
                "code_of_conduct": any(
                    "Conduct" in p for p in conf.diversity_policies
                ),
                "childcare": any("childcare" in p for p in conf.diversity_policies),
                "demographic_reporting": any(
                    "Demographic" in p for p in conf.diversity_policies
                ),
            }
        )
    conferences = Table.from_records(conf_rows)

    # ---- role slots (non-author seats, repeats included) ----------------
    slot_rows = []
    for rid, rec in linked.researchers.items():
        e = enrichment.get(rid)
        for conf_name, year, role in rec.roles:
            if role is Role.AUTHOR:
                continue
            slot_rows.append(
                {
                    "researcher_id": rid,
                    "conference": conf_name,
                    "year": year,
                    "role": role.value,
                    "gender": gender[rid],
                    "country": e.country_code if e else None,
                    "region": e.region if e else None,
                    "sector": e.sector if e else None,
                }
            )
    role_slots = Table.from_records(
        slot_rows,
        columns=[
            "researcher_id", "conference", "year", "role",
            "gender", "country", "region", "sector",
        ],
    )

    return (researchers, author_positions, conf_authors, papers, conferences, role_slots)


def _table_form(table: Table):
    return [(c, table.col(c).kind, repr(table.col(c).to_list())) for c in table.columns]


def _shard_artifacts(config, spec, faults=None) -> dict:
    """The inputs ``stage_dataset`` sees in ``stage_shard``."""
    from repro.engine.stages import (
        PipelineParams, stage_enrich, stage_infer, stage_ingest, stage_link,
    )
    from repro.synth import build_world
    from repro.synth.population import plan_from_targets

    world = build_world(
        config,
        targets=[spec.target],
        year=spec.year,
        rng_path=("shard", spec.conference, spec.year),
        population_plan=plan_from_targets([spec.target], author_repeat=1.0, pc_repeat=1.0),
    )
    params = PipelineParams(faults=faults)
    art = {"world": world}
    for stage in (stage_ingest, stage_link, stage_enrich, stage_infer):
        art.update(stage(params, art))
    return art


def _edge_case_inputs():
    """Linked records the generated shards rarely hold: a one-author and a
    zero-author paper, missing citations, a researcher with no enrichment
    or assignment, a seat-only researcher, and no data at all."""
    from repro.gender.model import Gender, InferenceMethod
    from repro.harvest.scrape import HarvestedConference
    from repro.pipeline.link import LinkedPaper, ResearcherRecord

    researchers = {
        "r1": ResearcherRecord("r1", "Ada", "ada", roles=[("X", 2017, Role.AUTHOR)]),
        "r2": ResearcherRecord("r2", "Bo", "bo", roles=[("X", 2017, Role.AUTHOR),
                                                       ("X", 2017, Role.PC_CHAIR)]),
        "r3": ResearcherRecord("r3", "Cy", "cy", roles=[("Y", 2016, Role.KEYNOTE)]),
    }
    papers = [
        LinkedPaper("p1", "X", 2017, "Solo", ("r1",), None, None),
        LinkedPaper("p2", "X", 2017, "Empty", (), 12, True),
        LinkedPaper("p3", "Y", 2016, "Pair", ("r2", "r1"), 9, False),
    ]
    confs = [HarvestedConference("X", 2017, diversity_policies=("Code of Conduct",)),
             HarvestedConference("Y", 2016, accepted=3, submitted=0)]
    enrichment = {"r2": Enrichment("r2", "US", "Northern America", "EDU", 5, 2, 0, 30, 7)}
    assignments = {
        "r1": GenderAssignment(Gender.F, InferenceMethod.MANUAL, 1.0),
        "r2": GenderAssignment.unassigned(),
    }
    return [
        (LinkedData(researchers, papers, confs), enrichment, assignments),
        (LinkedData(), {}, {}),
    ]


def test_dataset_build_matches_from_records_build(small_result):
    from repro.faults.plan import FaultConfig
    from repro.synth import WorldConfig
    from repro.synth.shards import ShardPlan

    config = WorldConfig(seed=2, scale=0.25, venues=4)
    shard_cfg = dataclasses.replace(config, years=(), venues=0, include_timeline=False)
    inputs = []
    for faults in (None, FaultConfig(rate=0.6, seed=2)):
        for spec in ShardPlan.from_config(config):
            art = _shard_artifacts(shard_cfg, spec, faults)
            inputs.append((art["linked"], art["enrichment"], art["inference"].assignments))
    columnless = 0
    for linked, enrichment, assignments in inputs + _edge_case_inputs():
        new = AnalysisDataset.build(linked, enrichment, assignments)
        old = _old_build(linked, enrichment, assignments)
        names = ("researchers", "author_positions", "conf_authors", "papers",
                 "conferences", "role_slots")
        for name, table in zip(names, old):
            assert _table_form(getattr(new, name)) == _table_form(table), name
            columnless += not table.columns
        assert new.assignments == assignments
    # the fault runs lose a paper list: the zero-row, column-less case is covered
    assert columnless > 0


def _old_with_assignments(self, assignments: dict[str, GenderAssignment]) -> tuple[Table, ...]:
    gender = {
        rid: _gender_str(assignments.get(rid))
        for rid in self.researchers["researcher_id"]
    }

    def regender(table: Table, id_col: str, out_col: str) -> Table:
        vals = [gender.get(rid) for rid in table[id_col]]
        return table.with_column(out_col, vals)

    researchers = regender(self.researchers, "researcher_id", "gender")
    methods = [
        assignments[rid].method.value if rid in assignments else "none"
        for rid in self.researchers["researcher_id"]
    ]
    researchers = researchers.with_column("gender_method", methods)
    author_positions = regender(self.author_positions, "researcher_id", "gender")
    conf_authors = regender(self.conf_authors, "researcher_id", "gender")
    papers = self.papers
    papers = papers.with_column(
        "first_gender",
        [gender.get(rid) if rid else None for rid in papers["first_author"]],
    )
    papers = papers.with_column(
        "last_gender",
        [gender.get(rid) if rid else None for rid in papers["last_author"]],
    )
    role_slots = regender(self.role_slots, "researcher_id", "gender")
    return (researchers, author_positions, conf_authors, papers, self.conferences, role_slots)


def test_with_assignments_matches_old_body(small_result):
    from repro.gender.model import Gender
    from repro.gender.sensitivity import reassign_unknowns

    ds = small_result.dataset
    some = dict(list(ds.assignments.items())[::2])  # researchers without one too
    for assignments in (ds.assignments, some, {},
                        reassign_unknowns(ds.assignments, Gender.F),
                        reassign_unknowns(ds.assignments, Gender.M)):
        new = ds.with_assignments(assignments)
        names = ("researchers", "author_positions", "conf_authors", "papers",
                 "conferences", "role_slots")
        for name, table in zip(names, _old_with_assignments(ds, assignments)):
            assert _table_form(getattr(new, name)) == _table_form(table), name
        assert new.assignments == assignments


def _old_with_assignments_per_row(
    self, assignments: dict[str, GenderAssignment]
) -> tuple[Table, ...]:
    ids = self.researchers["researcher_id"]
    # assignments are shared immutable values (a few hundred distinct
    # objects for tens of thousands of researchers): render each once
    rendered: dict[int, tuple[str | None, str]] = {}
    genders: list[str | None] = []
    methods: list[str] = []
    for rid in ids:
        a = assignments.get(rid)
        cells = rendered.get(id(a))
        if cells is None:
            method = a.method.value if a is not None else "none"
            cells = rendered[id(a)] = (_gender_str(a), method)
        genders.append(cells[0])
        methods.append(cells[1])
    gender = dict(zip(ids, genders))

    def regender(table: Table, id_col: str, out_col: str) -> Table:
        vals = [gender.get(rid) for rid in table[id_col]]
        return table.with_column(out_col, vals)

    researchers = self.researchers.with_column("gender", genders)
    researchers = researchers.with_column("gender_method", methods)
    author_positions = regender(self.author_positions, "researcher_id", "gender")
    conf_authors = regender(self.conf_authors, "researcher_id", "gender")
    papers = self.papers
    papers = papers.with_column(
        "first_gender",
        [gender.get(rid) if rid else None for rid in papers["first_author"]],
    )
    papers = papers.with_column(
        "last_gender",
        [gender.get(rid) if rid else None for rid in papers["last_author"]],
    )
    role_slots = regender(self.role_slots, "researcher_id", "gender")
    return (researchers, author_positions, conf_authors, papers, self.conferences, role_slots)


def _old_reassign_unknowns(assignments, to):
    if to is Gender.UNKNOWN:
        raise ValueError("sensitivity target must be F or M")
    forced = _FORCED[to]
    return {pid: a if a.known else forced for pid, a in assignments.items()}


@pytest.fixture(scope="module")
def regender_datasets(small_result):
    from repro.api import RunConfig, WorldConfig, run_sharded

    sharded = run_sharded(
        RunConfig(world=WorldConfig(seed=5, scale=0.25, venues=2, years=(2016, 2017)),
                  shards=2)
    )
    edge, empty = (AnalysisDataset.build(*inputs) for inputs in _edge_case_inputs())
    return {"paper": small_result.dataset, "sharded": sharded.dataset,
            "edge": edge, "empty": empty}


def _assignment_cases(ds):
    from repro.gender.model import InferenceMethod

    own = ds.assignments
    # equal-valued but distinct objects, and an id no table knows
    twins = {rid: GenderAssignment(Gender.F, InferenceMethod.GENDERIZE, 0.9)
             for rid in list(own)[::3]}
    twins["nobody"] = GenderAssignment.unassigned()
    return {
        "own": own,
        "every-other": dict(list(own.items())[::2]),
        "none": {},
        "twins": {**own, **twins},
        "all-women": _old_reassign_unknowns(own, Gender.F),
        "all-men": _old_reassign_unknowns(own, Gender.M),
    }


@pytest.mark.parametrize("name", ["paper", "sharded", "edge", "empty"])
def test_columnar_with_assignments_matches_old_body(regender_datasets, name):
    ds = regender_datasets[name]
    names = ("researchers", "author_positions", "conf_authors", "papers",
             "conferences", "role_slots")
    for label, assignments in _assignment_cases(ds).items():
        if not ds.author_positions.columns:  # a harvest that lost every page
            with pytest.raises(KeyError):
                _old_with_assignments_per_row(ds, assignments)
            with pytest.raises(KeyError):
                ds.with_assignments(assignments)
            continue
        new = ds.with_assignments(assignments)
        for table_name, table in zip(names, _old_with_assignments_per_row(ds, assignments)):
            assert _table_form(getattr(new, table_name)) == _table_form(table), (label, table_name)
        assert new.assignments == assignments


@pytest.mark.parametrize("name", ["paper", "sharded", "edge", "empty"])
def test_columnar_reassign_unknowns_matches_old_body(regender_datasets, name):
    for assignments in _assignment_cases(regender_datasets[name]).values():
        for to in (Gender.F, Gender.M):
            new = reassign_unknowns(assignments, to)
            old = _old_reassign_unknowns(assignments, to)
            assert list(new) == list(old)
            # the very same objects: shared values stay shared
            assert all(new[k] is old[k] for k in old)
    with pytest.raises(ValueError, match="F or M"):
        reassign_unknowns({}, Gender.UNKNOWN)


# --------------------------------------------------------------- ipf

from repro.calibration.ipf import IPFResult, ipf_fit  # noqa: E402

def _old_margin(table: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Sum ``table`` over every axis not in ``dims`` (dims keep order)."""
    other = tuple(ax for ax in range(table.ndim) if ax not in dims)
    m = table.sum(axis=other)
    # table.sum drops axes; reorder to match dims order if permuted
    order = np.argsort(np.argsort(dims))
    return np.transpose(m, axes=order) if m.ndim > 1 else m


def _old_ipf_fit(
    seed: np.ndarray,
    margins: Sequence[tuple[tuple[int, ...], np.ndarray]],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> IPFResult:
    """Fit a joint table to the given margins by raking.

    Parameters
    ----------
    seed:
        Nonnegative N-D start table.  Zero cells stay zero (structural
        zeros), which is how impossible combinations are expressed.
    margins:
        Sequence of ``(dims, target)`` pairs: ``dims`` are the axes the
        margin lives on (in target's axis order) and ``target`` the
        desired sums.  All targets must share the same grand total
        (checked to 1e-6 relative).
    tol:
        Convergence threshold on the max relative margin error.
    max_iter:
        Maximum sweeps.

    Returns
    -------
    IPFResult
    """
    table = np.array(seed, dtype=np.float64)
    if np.any(table < 0):
        raise ValueError("seed table must be nonnegative")
    if not margins:
        raise ValueError("at least one margin is required")
    totals = []
    specs: list[tuple[tuple[int, ...], np.ndarray]] = []
    for dims, target in margins:
        dims = tuple(int(d) for d in dims)
        t = np.asarray(target, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("margin targets must be nonnegative")
        expected_shape = tuple(table.shape[d] for d in dims)
        if t.shape != expected_shape:
            raise ValueError(
                f"margin on dims {dims} has shape {t.shape}, expected {expected_shape}"
            )
        totals.append(t.sum())
        specs.append((dims, t))
    grand = totals[0]
    for t in totals[1:]:
        if grand > 0 and abs(t - grand) > 1e-6 * max(grand, 1.0):
            raise ValueError(
                f"margins disagree on grand total: {grand} vs {t} "
                "(rescale targets before fitting)"
            )
    if table.sum() == 0:
        raise ValueError("seed table sums to zero")

    def max_rel_error() -> float:
        err = 0.0
        for dims, target in specs:
            cur = _old_margin(table, dims)
            denom = np.maximum(target, 1e-12)
            err = max(err, float(np.max(np.abs(cur - target) / denom)))
        return err

    it = 0
    err = max_rel_error()
    while err > tol and it < max_iter:
        for dims, target in specs:
            cur = _old_margin(table, dims)
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(cur > 0, target / np.maximum(cur, 1e-300), 0.0)
            # broadcast factor back over the full table
            shape = [1] * table.ndim
            for ax_pos, ax in enumerate(dims):
                shape[ax] = table.shape[ax]
            # factor axes are in dims order; move them into position
            f = factor
            # build an indexable broadcast array
            expand = f.reshape(
                [table.shape[ax] if ax in dims else 1 for ax in range(table.ndim)]
            ) if list(dims) == sorted(dims) else None
            if expand is None:
                # permute factor so its axes are ascending before reshape
                perm = np.argsort(dims)
                f = np.transpose(f, axes=perm)
                expand = f.reshape(
                    [table.shape[ax] if ax in dims else 1 for ax in range(table.ndim)]
                )
            table *= expand
        it += 1
        err = max_rel_error()
    return IPFResult(table=table, iterations=it, max_error=err, converged=err <= tol)


def _fit_outcome(fit, seed, margins):
    try:
        res = fit(seed, margins)
    except ValueError as exc:
        return ("error", str(exc))
    return (res.table.dtype, res.table.shape, res.table.tobytes(), res.iterations,
            res.max_error, res.converged)


_CELLS = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.tuples(
                st.lists(st.lists(_CELLS, min_size=c, max_size=c), min_size=r, max_size=r),
                st.lists(_CELLS, min_size=r, max_size=r),
                st.lists(_CELLS, min_size=c, max_size=c),
            )
        )
    )
)
def test_ipf_matches_old_body_two_way(case):
    seed, rows, cols = (np.array(x, dtype=float) for x in case)
    if cols.sum() > 0:
        cols = cols * (rows.sum() / cols.sum())  # agreeing totals, when possible
    margins = [((0,), rows), ((1,), cols)]
    assert _fit_outcome(ipf_fit, seed, margins) == _fit_outcome(_old_ipf_fit, seed, margins)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ipf_matches_old_body_three_way_permuted(seed):
    rng = np.random.default_rng(seed)
    start = rng.random((3, 2, 4)) + 0.01
    joint = rng.random((4, 3)) * 10  # margin on axes (2, 0): not ascending
    total = joint.sum()
    mid = rng.random(2)
    margins = [((2, 0), joint), ((1,), mid * (total / mid.sum()))]
    assert _fit_outcome(ipf_fit, start, margins) == _fit_outcome(_old_ipf_fit, start, margins)


# ------------------------------------------------- country-gender cells

from repro.calibration.allocate import allocate_counts, allocate_two_way  # noqa: E402
from repro.calibration.targets import (  # noqa: E402
    COUNTRY_TARGETS,
    REGION_ROLE_TARGETS,
    TOTALS,
)
from repro.synth.population import PopulationBuilder, _region_countries  # noqa: E402

def _old_country_gender_cells(
    self, role: str, pool_size: int, women_total: int
) -> list[tuple[str | None, str, int]]:
    """Allocate (country, gender) counts for a pool.

    Returns a list of ``(country_code_or_None, 'F'|'M', count)``.
    Region totals come from Table 3's column for ``role``; the
    unidentified remainder becomes country=None cells.  Within a
    region, countries are weighted by Table 2/Fig. 7 totals and the
    region's women count is spread over countries in proportion to
    their published female shares (two-way allocation).
    """
    regions = REGION_ROLE_TARGETS
    if role == "author":
        region_totals = np.array([r.author_total for r in regions], dtype=float)
        region_pct_w = np.array([r.author_pct_women for r in regions]) / 100.0
    elif role == "pc":
        region_totals = np.array([r.pc_total for r in regions], dtype=float)
        region_pct_w = np.array([r.pc_pct_women for r in regions]) / 100.0
    else:
        raise ValueError(f"unknown role {role!r}")

    identified_share = float(region_totals.sum()) / (
        TOTALS["author_positions"] if role == "author" else TOTALS["pc_memberships"]
    )
    n_identified = int(round(pool_size * identified_share))
    n_unknown = pool_size - n_identified

    region_counts = allocate_counts(region_totals, n_identified)
    region_women = np.minimum(
        np.round(region_counts * region_pct_w).astype(np.int64), region_counts
    )
    # Reconcile with the pool's total women target: adjust the largest
    # regions first so no region flips sign.
    women_known = women_total - self._unknown_pool_women(n_unknown, role)
    diff = int(women_known - region_women.sum())
    # absorb the reconciliation in regions that already have many
    # women, so near-zero regions (e.g. Eastern Asia PC) stay pure
    order = np.argsort(-region_women)
    i = 0
    while diff != 0 and i < 10 * len(order):
        j = order[i % len(order)]
        if diff > 0 and region_women[j] < region_counts[j]:
            region_women[j] += 1
            diff -= 1
        elif diff < 0 and region_women[j] > 0:
            region_women[j] -= 1
            diff += 1
        i += 1

    by_region = _region_countries()
    country_weight = {t.cca2: float(t.total) for t in COUNTRY_TARGETS}
    country_pct_w = {t.cca2: t.pct_women / 100.0 for t in COUNTRY_TARGETS}

    # Table 2's country shares combine authors + PC seats; within a
    # region the role-specific share differs (e.g. Eastern Asia: 11.9%
    # women among authors but 2.9% among PC).  Rescale each country's
    # combined share by (region role share / region combined share) to
    # get role-consistent seeds.
    region_combined: dict[str, float] = {}
    for r in regions:
        tot = r.author_total + r.pc_total
        wom = r.author_pct_women / 100.0 * r.author_total + (
            r.pc_pct_women / 100.0 * r.pc_total
        )
        region_combined[r.region] = wom / tot if tot else 0.0

    cells: list[tuple[str | None, str, int]] = []
    for r_idx, region in enumerate(regions):
        total = int(region_counts[r_idx])
        women = int(region_women[r_idx])
        if total == 0:
            continue
        codes = by_region.get(region.region, [])
        if not codes:
            cells.append((None, "F", women))
            cells.append((None, "M", total - women))
            continue
        listed = [c for c in codes if c in country_weight]
        unlisted = [c for c in codes if c not in country_weight]
        # Listed countries receive counts proportional to their Table 2
        # totals but capped so that any excess region mass spills into
        # the region's unlisted countries instead of inflating the
        # published ones.
        listed_w = np.array([country_weight[c] for c in listed], dtype=float)
        listed_total_target = float(listed_w.sum())
        counts = np.zeros(len(listed) + len(unlisted), dtype=np.int64)
        if listed_total_target > 0 and total > 0:
            listed_share = min(1.0, listed_total_target / max(total, 1))
            n_listed = (
                min(total, int(round(total * listed_share)))
                if total > listed_total_target
                else total
            )
            # never allocate more to listed countries than proportional
            n_listed = min(n_listed, total)
            counts[: len(listed)] = allocate_counts(listed_w, n_listed)
        spill = total - int(counts.sum())
        if spill > 0:
            if unlisted:
                counts[len(listed):] = allocate_counts(
                    np.ones(len(unlisted)), spill
                )
            else:
                counts[: len(listed)] += allocate_counts(
                    np.maximum(listed_w, 1.0), spill
                ) if len(listed) else 0
        all_codes = listed + unlisted
        # role-consistent per-country women seeds
        role_pct = (
            region.author_pct_women if role == "author" else region.pc_pct_women
        ) / 100.0
        combined = region_combined[region.region]
        adj = role_pct / combined if combined > 0 else 1.0
        base = women / total if total else 0.0
        shares = np.clip(
            np.array([country_pct_w.get(c, base) for c in all_codes]) * adj,
            0.005,
            0.95,
        )
        seed = np.stack(
            [counts * shares, counts * (1.0 - shares)], axis=1
        )
        seed = np.where(seed <= 0, 1e-9, seed)
        if counts.sum() > 0:
            table = allocate_two_way(
                counts.astype(float),
                np.array([women, total - women], dtype=float),
                seed=seed,
            )
            for c_idx, code in enumerate(all_codes):
                if table[c_idx, 0]:
                    cells.append((code, "F", int(table[c_idx, 0])))
                if table[c_idx, 1]:
                    cells.append((code, "M", int(table[c_idx, 1])))
    # unknown-country researchers
    unknown_women = self._unknown_pool_women(n_unknown, role)
    if n_unknown > 0:
        cells.append((None, "F", unknown_women))
        cells.append((None, "M", n_unknown - unknown_women))
    return cells



def _cells_outcome(fn, builder, role, size, women):
    try:
        return fn(builder, role, size, women)
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["author", "pc", "editor"]), st.integers(0, 4000), st.floats(0.0, 0.4))
def test_country_gender_cells_match_old_body(role, size, share):
    from repro.synth.config import WorldConfig
    from repro.util.rng import RngStream

    builder = PopulationBuilder(WorldConfig(seed=1), RngStream(1, ("w",)))
    women = int(round(size * share))
    new = _cells_outcome(PopulationBuilder._country_gender_cells, builder, role, size, women)
    old = _cells_outcome(_old_country_gender_cells, builder, role, size, women)
    assert new == old


def test_country_gender_cells_are_a_fresh_list_per_call():
    from repro.synth.config import WorldConfig
    from repro.util.rng import RngStream

    builder = PopulationBuilder(WorldConfig(seed=1), RngStream(1, ("w",)))
    cells = builder._country_gender_cells("author", 900, 90)
    expected = list(cells)
    cells[0] = ("XX", "F", -1)  # _make_pool fixes its cells up in place
    again = builder._country_gender_cells("author", 900, 90)
    assert again == expected and again is not cells


# ------------------------------------------------------------- line_plot

from repro.viz.density import _GLYPHS, line_plot  # noqa: E402


def _old_line_plot(
    series,
    width: int = 72,
    height: int = 16,
    title: str | None = None,
) -> str:
    if not series:
        return "(no data)"
    xs = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    if xs.size == 0:
        return "(no data)"
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_hi = float(ys.max()) or 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (label, (x, y)) in enumerate(series.items()):
        glyph = _GLYPHS[si % 9]
        for xv, yv in zip(np.asarray(x, float), np.asarray(y, float)):
            if np.isnan(xv) or np.isnan(yv):
                continue
            col = int((xv - x_lo) / (x_hi - x_lo) * (width - 1))
            row = height - 1 - int(max(0.0, yv) / y_hi * (height - 1))
            cur = grid[row][col]
            grid[row][col] = glyph if cur in (" ", glyph) else "*"
    lines = ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x_lo:.3g}, {x_hi:.3g}]  y max: {y_hi:.3g}")
    legend = "  ".join(
        f"{_GLYPHS[i % 9]}={label}" for i, label in enumerate(series.keys())
    )
    lines.append(" " + legend)
    body = "\n".join(lines)
    return f"{title}\n{body}" if title else body


def _plot_outcome(fn, series, width, height):
    try:
        with np.errstate(all="ignore"):
            return fn(series, width=width, height=height, title="t")
    except Exception as exc:  # the old body's failure is part of its contract
        return ("error", type(exc).__name__, str(exc))


# few distinct values, so series overlap; NaN, zero and negative y,
# constant x (every x equal) all come up
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, float("nan")]),
    st.floats(-50, 50),
)


@st.composite
def _series(draw):
    n_series = draw(st.integers(0, 11))
    constant_x = draw(st.booleans())
    out = {}
    for i in range(n_series):
        n = draw(st.integers(0, 40))
        xs = [draw(_COORD) for _ in range(n)]
        if constant_x:
            xs = [xs[0]] * n if xs else xs
        # unequal lengths: the old body paired them with zip()
        ys = [draw(_COORD) for _ in range(n + draw(st.integers(-2, 2)) if n else 0)]
        out[f"s{i}"] = (xs, ys)
    return out


@settings(max_examples=400, deadline=None)
@given(_series(), st.integers(1, 80), st.integers(1, 20))
@example({"a": ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
          "b": ([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])}, 72, 16)
@example({"a": ([3.0, 3.0], [-1.0, -2.0])}, 10, 4)
@example({"a": ([0.0, float("nan")], [1.0, 2.0]),
          "b": ([1.0, 2.0], [float("nan"), 0.0])}, 72, 16)
@example({"a": ([0.0, 1.0], [0.0, 0.0]), "b": ([0.0], [0.0])}, 5, 3)
# every point dropped for a NaN: the NaN range draws an empty grid
@example({"a": ([float("nan")], [1.0]), "b": ([2.0], [float("nan")])}, 8, 3)
# series 0 and 9 share glyph '1': the tenth keeps the first's cell
@example({f"s{i}": ([float(i % 9)], [1.0]) for i in range(10)}, 12, 4)
def test_line_plot_matches_old_body(series, width, height):
    new = _plot_outcome(line_plot, series, width, height)
    old = _plot_outcome(_old_line_plot, series, width, height)
    assert new == old


def test_line_plot_matches_old_body_on_density_series():
    from repro.stats.kde import gaussian_kde

    rng = np.random.default_rng(3)
    series = {}
    for i, scale in enumerate((1.0, 4.0, 0.5)):
        k = gaussian_kde(rng.gamma(2.0, scale, size=200))
        series[f"g{i}"] = (k.grid, k.density)
    assert line_plot(series) == _old_line_plot(series)
