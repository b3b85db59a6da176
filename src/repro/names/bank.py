"""Name sampling and gender-statistics lookup."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.names.corpora import CLUSTERS, cluster_for_country
from repro.util.rng import Categorical

__all__ = ["ForenameEntry", "NameBank", "default_bank"]


@dataclass(frozen=True)
class ForenameEntry:
    """Statistics of a forename across the whole synthetic universe.

    ``female_share`` is the true fraction of bearers who are women;
    ``weight`` the relative frequency.  The simulated genderize service
    (:mod:`repro.gender.genderize`) reports these with sampling noise.
    """

    name: str
    female_share: float
    weight: int
    cluster: str


# a restricted forename pool and its sampler
_Pool = tuple[list[ForenameEntry], Categorical]


def _pool(entries: list[ForenameEntry], weights: np.ndarray) -> _Pool:
    return entries, Categorical(weights / weights.sum())


class NameBank:
    """Samples person names and answers forename-gender queries.

    Sampling respects the bearer's gender: a woman draws a forename with
    probability proportional to ``weight * female_share``; a man with
    ``weight * (1 - female_share)``.  Ambiguous names are therefore borne
    by both genders, exactly the property that limits forename-based
    inference.
    """

    def __init__(self) -> None:
        self._entries: dict[str, ForenameEntry] = {}
        self._by_cluster: dict[str, list[ForenameEntry]] = {}
        for cluster, data in CLUSTERS.items():
            rows = []
            for name, share, weight in data["forenames"]:
                entry = ForenameEntry(name, float(share), int(weight), cluster)
                rows.append(entry)
                # A forename may exist in several clusters; keep the
                # highest-weight entry for lookups (global statistics).
                prev = self._entries.get(name.lower())
                if prev is None or prev.weight < entry.weight:
                    self._entries[name.lower()] = entry
            self._by_cluster[cluster] = rows
        self._surnames = {c: list(d["surnames"]) for c, d in CLUSTERS.items()}
        # Per-cluster, per-gender samplers over the general, confident
        # and ambiguous forename pools.
        self._forenames: dict[tuple[str, str], Categorical] = {}
        self._confident: dict[tuple[str, str], _Pool] = {}
        self._ambiguous: dict[tuple[str, str], _Pool] = {}
        for cluster, rows in self._by_cluster.items():
            w = np.array([e.weight for e in rows], dtype=float)
            f = np.array([e.female_share for e in rows], dtype=float)
            wf = w * f
            wm = w * (1.0 - f)
            self._forenames[(cluster, "F")] = Categorical(wf / wf.sum())
            self._forenames[(cluster, "M")] = Categorical(wm / wm.sum())
            confident = {
                "F": [e for e in rows if e.female_share >= 0.92],
                "M": [e for e in rows if e.female_share <= 0.08],
            }
            ambiguous = [e for e in rows if 0.32 < e.female_share < 0.68]
            if not ambiguous:
                ambiguous = [min(rows, key=lambda e: abs(e.female_share - 0.5))]
            share = np.array([e.female_share for e in ambiguous], dtype=float)
            aw = np.array([e.weight for e in ambiguous], dtype=float)
            for g, plausible in (("F", share), ("M", 1.0 - share)):
                # every cluster corpus has confident names; guard anyway
                pool = confident[g] or rows
                self._confident[(cluster, g)] = _pool(
                    pool, np.array([e.weight for e in pool], dtype=float)
                )
                w = aw * plausible
                if w.sum() <= 0:
                    w = np.ones(len(ambiguous))
                self._ambiguous[(cluster, g)] = _pool(ambiguous, w)

    # ------------------------------------------------------------- sampling

    def clusters(self) -> tuple[str, ...]:
        return tuple(self._by_cluster.keys())

    def sample_forename(
        self, gender: str, cluster: str, rng: np.random.Generator
    ) -> str:
        """Draw a forename for a bearer of ``gender`` in ``cluster``."""
        if gender not in ("F", "M"):
            raise ValueError(f"gender must be 'F' or 'M', got {gender!r}")
        rows = self._by_cluster.get(cluster)
        if rows is None:
            raise KeyError(f"unknown cluster {cluster!r}")
        return rows[self._forenames[(cluster, gender)].draw(rng)].name

    def sample_surname(self, cluster: str, rng: np.random.Generator) -> str:
        names = self._surnames.get(cluster)
        if names is None:
            raise KeyError(f"unknown cluster {cluster!r}")
        return str(names[int(rng.integers(0, len(names)))])

    def sample_full_name(
        self, gender: str, country_code: str, rng: np.random.Generator
    ) -> str:
        """Draw 'Forename Surname' appropriate for a country."""
        cluster = cluster_for_country(country_code)
        return (
            f"{self.sample_forename(gender, cluster, rng)} "
            f"{self.sample_surname(cluster, rng)}"
        )

    def sample_confident_forename(
        self, gender: str, cluster: str, rng: np.random.Generator
    ) -> str:
        """Draw a forename whose gender a name service would call confidently.

        Restricts to names with female_share ≥ 0.92 (for women) or
        ≤ 0.08 (for men): even with sampling noise, genderize-style
        inference clears a 0.70 confidence threshold on these.
        """
        if gender not in ("F", "M"):
            raise ValueError(f"gender must be 'F' or 'M', got {gender!r}")
        if cluster not in self._by_cluster:
            raise KeyError(f"unknown cluster {cluster!r}")
        pool, draws = self._confident[(cluster, gender)]
        return pool[draws.draw(rng)].name

    def sample_ambiguous_forename(
        self, gender: str, cluster: str, rng: np.random.Generator
    ) -> str:
        """Draw an ambiguous forename a name service cannot call at 0.70.

        Restricts to names with female_share in (0.25, 0.75), weighted by
        how plausible they are for the bearer's true gender.  Falls back
        to the cluster's most ambiguous name when the band is empty.
        """
        if cluster not in self._by_cluster:
            raise KeyError(f"unknown cluster {cluster!r}")
        pool, draws = self._ambiguous[(cluster, "F" if gender == "F" else "M")]
        return pool[draws.draw(rng)].name

    # -------------------------------------------------------------- lookups

    def lookup(self, forename: str) -> ForenameEntry | None:
        """The global statistics of a forename (case-insensitive)."""
        return self._entries.get(forename.strip().lower())

    def true_female_share(self, forename: str) -> float | None:
        e = self.lookup(forename)
        return e.female_share if e else None

    def entries(self) -> tuple[ForenameEntry, ...]:
        return tuple(self._entries.values())


@lru_cache(maxsize=1)
def default_bank() -> NameBank:
    """The process-wide shared NameBank (the corpora are static)."""
    return NameBank()
