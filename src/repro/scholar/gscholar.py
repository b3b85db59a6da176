"""Simulated Google Scholar profile store.

Real GS has two properties the paper depends on: (1) only about two
thirds of researchers have a uniquely identifiable profile, and those who
do skew more experienced; (2) its publication counts disagree with
Semantic Scholar's because disambiguation and indexing differ.  The
store reproduces both: coverage is decided by the world generator (the
probability of having a profile rises with experience) and the stored
counts are the researcher's true past-publication count with multiplicative
indexing noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.names.parsing import cached_name_key

__all__ = ["GSProfile", "GoogleScholarStore"]


@dataclass(frozen=True)
class GSProfile:
    """A Google Scholar profile as the pipeline consumes it.

    Attributes mirror what the paper collected "ca. 2017": total previous
    publications, h-index, i10-index, total citations, plus the free-text
    affiliation used for country/sector resolution.
    """

    profile_id: str
    display_name: str
    affiliation: str
    publications: int
    h_index: int
    i10_index: int
    citations: int


class GoogleScholarStore:
    """Name-searchable registry of GS profiles.

    ``search`` mimics the manual "identify the unique GS profile"
    workflow: it returns all profiles whose normalized name matches, and
    the pipeline treats a non-unique result as unlinkable — the same
    reason the paper could link only ~68% of researchers.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, GSProfile] = {}
        self._by_name: dict[str, list[str]] = {}

    def add(self, profile: GSProfile) -> None:
        if profile.profile_id in self._profiles:
            raise ValueError(f"duplicate profile id {profile.profile_id!r}")
        self._profiles[profile.profile_id] = profile
        self._by_name.setdefault(cached_name_key(profile.display_name), []).append(
            profile.profile_id
        )

    def get(self, profile_id: str) -> GSProfile | None:
        return self._profiles.get(profile_id)

    def search(self, full_name: str) -> list[GSProfile]:
        """All profiles matching a name (may be 0, 1, or several)."""
        ids = self._by_name.get(cached_name_key(full_name), [])
        return [self._profiles[i] for i in ids]

    def unique_match(self, full_name: str) -> GSProfile | None:
        """The profile for a name iff exactly one matches (else None)."""
        hits = self.search(full_name)
        return hits[0] if len(hits) == 1 else None

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self):
        return iter(self._profiles.values())
