"""A minimal HTML subset: builder, tokenizer, element tree, queries.

The generated conference sites use a small, well-formed HTML subset
(nested elements, double-quoted attributes, text nodes, HTML entities
for ``& < >``), and this module implements both directions.  The parser
is a hand-rolled tokenizer + stack builder — not a full HTML5 parser,
but robust to the malformations the tests inject (unknown tags, extra
whitespace, missing optional attributes, comments).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["HtmlElement", "el", "render", "parse_html"]

_VOID_TAGS = frozenset({"br", "hr", "img", "meta", "link", "input"})

_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")]
_WS = re.compile(r"\s+")


def escape(text: str) -> str:
    for raw, enc in _ESCAPES:
        text = text.replace(raw, enc)
    return text


def unescape(text: str) -> str:
    if "&" not in text:  # every entity starts with '&'
        return text
    for raw, enc in reversed(_ESCAPES):
        text = text.replace(enc, raw)
    return text


@dataclass
class HtmlElement:
    """An element node; children are elements or raw strings."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["HtmlElement | str"] = field(default_factory=list)

    # ----------------------------------------------------------- building

    def add(self, *children: "HtmlElement | str") -> "HtmlElement":
        self.children.extend(children)
        return self

    # ------------------------------------------------------------ queries

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(self.attrs.get("class", "").split())

    # The walks below are iterative: ``parse_html`` auto-closes unclosed
    # tags, so a malformed page can nest deeper than the recursion limit.

    def text(self) -> str:
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

    def iter(self) -> Iterator["HtmlElement"]:
        """Depth-first iteration over element nodes (self included)."""
        stack: list[HtmlElement] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += [c for c in reversed(node.children) if isinstance(c, HtmlElement)]

    def _matching(
        self, tag: str | None, cls: str | None
    ) -> Iterator["HtmlElement"]:
        for node in self.iter():
            if tag is not None and node.tag != tag:
                continue
            if cls is not None:
                # the same test as ``cls in node.classes``
                value = node.attrs.get("class")
                if value is None or cls not in value or cls not in value.split():
                    continue
            yield node

    def find_all(
        self, tag: str | None = None, cls: str | None = None
    ) -> list["HtmlElement"]:
        """All descendants (self included) matching tag and/or class."""
        return list(self._matching(tag, cls))

    def find(self, tag: str | None = None, cls: str | None = None) -> "HtmlElement | None":
        """The first match in document order, or None."""
        return next(self._matching(tag, cls), None)


def el(tag: str, *children: HtmlElement | str, **attrs: str) -> HtmlElement:
    """Element constructor: ``el("div", "text", cls="row")``.

    The keyword ``cls`` maps to the ``class`` attribute.
    """
    mapped = {("class" if k == "cls" else k): v for k, v in attrs.items()}
    return HtmlElement(tag, mapped, list(children))


def render(node: HtmlElement | str, indent: int = 0) -> str:
    """Serialize a tree to HTML text."""
    if isinstance(node, str):
        return escape(node)
    attrs = "".join([f' {k}="{escape(v)}"' for k, v in node.attrs.items()])
    if node.tag in _VOID_TAGS:
        return f"<{node.tag}{attrs}/>"
    inner = "".join([render(c) for c in node.children])
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(
    r"<!--.*?-->"                 # comments (dropped)
    r"|<!/?[A-Za-z][^>]*>"        # doctype-ish (dropped)
    r"|</\s*([A-Za-z][\w-]*)\s*>"  # closing tag
    r"|<\s*([A-Za-z][\w-]*)((?:\s+[^<>]*?)?)\s*(/?)>"  # opening (attrs lax)
    r"|([^<]+)",                  # text
    re.DOTALL,
)
_ATTR = re.compile(r'([\w-]+)\s*=\s*"([^"]*)"')


class HtmlParseError(ValueError):
    """Raised on mismatched tags or truncated input."""


def parse_html(text: str) -> HtmlElement:
    """Parse HTML text into a tree rooted at a synthetic ``#root``.

    Raises :class:`HtmlParseError` on mismatched close tags.  Unclosed
    tags at EOF are tolerated (auto-closed), as real scrapers must.
    """
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
