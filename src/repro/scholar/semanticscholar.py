"""Simulated Semantic Scholar author records.

The paper uses Semantic Scholar as a second, fully covering source of
past-publication counts (Fig. 5), noting that GS and S2 "use different
data and algorithms for questions such as name disambiguation, resulting
in low correlation (r = 0.334)".  The store therefore holds counts that
share only the rank structure of the truth: the world generator writes
them with heavy multiplicative noise plus occasional disambiguation
mix-ups (merging two researchers' records), which is what actually drives
the correlation down in the real services.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.names.parsing import cached_name_key

__all__ = ["S2Record", "SemanticScholarStore"]


@dataclass(frozen=True)
class S2Record:
    """A Semantic Scholar author record (past publications ca. 2017)."""

    author_id: str
    display_name: str
    publications: int


class SemanticScholarStore:
    """Registry of S2 records keyed by the pipeline's person id.

    Unlike GS, coverage is total: every author present in the proceedings
    has a record (matching the paper's "100% author coverage").
    """

    def __init__(self) -> None:
        self._records: dict[str, S2Record] = {}
        self._by_name: dict[str, list[str]] = {}

    def put(self, person_id: str, record: S2Record) -> None:
        if person_id not in self._records:
            key = cached_name_key(record.display_name)
            self._by_name.setdefault(key, []).append(person_id)
        self._records[person_id] = record

    def search_name(self, full_name: str) -> list[S2Record]:
        """All records matching a display name (S2's author search)."""
        ids = self._by_name.get(cached_name_key(full_name), [])
        return [self._records[i] for i in ids]

    def get(self, person_id: str) -> S2Record | None:
        return self._records.get(person_id)

    def publications_of(self, person_id: str) -> int | None:
        rec = self._records.get(person_id)
        return rec.publications if rec else None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._records
