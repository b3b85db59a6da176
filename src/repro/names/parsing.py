"""Name string manipulation: forename extraction and normalization.

The pipeline links records from different sources (proceedings, committee
pages, scholar profiles) by name; these helpers define the canonical key.
"""

from __future__ import annotations

import functools
import re
import unicodedata

__all__ = ["clean_person_name", "forename_of", "normalize_name", "name_key", "cached_name_key"]

_INITIAL = re.compile(r"^[A-Za-z]\.?$")

# Invisible/format characters that survive ``\s`` collapsing: zero-width
# space/joiners, the BOM, and soft hyphens.  Scraped pages carry these
# routinely, and a single one splits an author into two researchers.
_ZERO_WIDTH = re.compile("[\u200b\u200c\u200d\u2060\ufeff\u00ad]")


def normalize_name(name: str) -> str:
    """Collapse whitespace and strip; preserves case and diacritics."""
    # split/join is ``re.sub(r"\s+", " ", name).strip()``: ``\s`` and
    # ``str.split()`` agree on every code point (``str.isspace``)
    return " ".join(name.split())


def clean_person_name(name: str) -> str:
    """Scrub a scraped person name for record-keeping and keying.

    Removes zero-width/format characters, maps every Unicode whitespace
    (NBSP, thin/ideographic spaces, ...) to a plain space, and collapses
    internal runs — so "Ada  Lovelace" and "Ada Lovelace" key to
    the same researcher instead of splitting into two.
    """
    if not name.isascii():  # every character _ZERO_WIDTH removes is non-ASCII
        name = _ZERO_WIDTH.sub("", name)
    return normalize_name(name)


def forename_of(full_name: str) -> str | None:
    """First non-initial token of a full name, or None.

    "R. Smith" has no usable forename (an initial cannot be gender-
    inferred); "Rhody D. Kaner" yields "Rhody".
    """
    tokens = normalize_name(full_name).split(" ")
    for tok in tokens[:-1] or tokens:
        if not _INITIAL.match(tok):
            return tok
    return None


def _strip_accents(text: str) -> str:
    if text.isascii():  # ASCII is NFKD-invariant and has no combining marks
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def name_key(full_name: str) -> str:
    """Canonical matching key: accent-folded, lowercase, single spaces.

    Used for identity resolution across harvested sources.  Two people
    with the same key are treated as the same researcher — the same
    (documented) failure mode real bibliometric pipelines have.
    """
    return _strip_accents(normalize_name(full_name)).lower()


@functools.lru_cache(maxsize=65536)
def cached_name_key(full_name: str) -> str:
    """Memoized :func:`name_key` for the lookup-loop hot paths.

    Identity resolution and the scholar stores key every observation by
    name; the same spelling recurs once per role/paper observation, so
    the normalization (NFKD decompose + filter) is worth caching.  The
    function is pure; the bound keeps a 10⁷-researcher universe from
    pinning every spelling in memory.
    """
    return name_key(full_name)
