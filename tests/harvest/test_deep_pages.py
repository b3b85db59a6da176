"""Deeply nested pages: the tree walks must not recurse.

``parse_html`` auto-closes unclosed tags, so a committee page whose
``<div>``s are never closed parses into a tree as deep as the page has
tags.  The scraper's walks (``iter``/``text``/``find``) used to recurse
once per level and died with ``RecursionError`` — which ``_safe_parse``
does not catch — on a page nested deeper than the interpreter's
recursion limit.
"""

import sys

from repro.harvest.html import parse_html
from repro.harvest.scrape import scrape_site
from repro.harvest.sitegen import ConferenceSite

DEPTH = max(1500, sys.getrecursionlimit() + 500)


def _deep_committee_page() -> str:
    return (
        "<html><body>"
        + "<div>" * DEPTH
        + '<ul class="pc-member-list"><li class="pc-member">Ada Lovelace</li></ul>'
    )


def _site(committees_html: str) -> ConferenceSite:
    empty = "<html><body></body></html>"
    return ConferenceSite(
        conference="CONF",
        year=2017,
        index_html=empty,
        committees_html=committees_html,
        program_html=empty,
        papers_html=empty,
    )


def test_deep_page_walks_without_recursion():
    tree = parse_html(_deep_committee_page() + "<b>x  y</b>")
    nodes = list(tree.iter())
    assert len(nodes) == DEPTH + 6  # #root html body, the divs, ul li b
    assert [n.tag for n in nodes[-3:]] == ["ul", "li", "b"]
    assert tree.text() == "Ada Lovelacex y"
    assert tree.find(tag="li", cls="pc-member").text() == "Ada Lovelace"


def test_deep_committee_page_yields_its_pc_member():
    conf = scrape_site(_site(_deep_committee_page()))
    assert [(r.full_name, r.role) for r in conf.roles] == [("Ada Lovelace", "pc-member")]
