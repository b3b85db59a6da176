"""Construction of the researcher population.

Builds two pools calibrated to the paper:

- the **author pool** — 1,885 unique coauthors (at scale 1.0) with the
  global 9.9% female share, countries raked to Table 3's author column
  and Table 2's country weights, sectors per §5.3;
- the **PC pool** — 908 unique PC members, a configurable fraction of
  whom also appear in the author pool, with the higher PC female share
  and the PC columns of Table 3.

Every person also receives the attributes the harvesting pipeline will
later *rediscover*: a culturally plausible name, manual web evidence (or
the lack of it), an email address, and an affiliation string — with the
evidence quotas set so the inference cascade reproduces the paper's
95.18% / 1.79% / 3.03% coverage split.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.calibration.allocate import allocate_counts, allocate_two_way, split_women
from repro.calibration.targets import (
    COUNTRY_TARGETS,
    REGION_ROLE_TARGETS,
    SECTOR_SHARES,
    TOTALS,
)
from repro.gender.model import Gender
from repro.gender.webevidence import EvidenceKind
from repro.geo.countries import all_countries, country_by_code
from repro.names.bank import default_bank
from repro.names.corpora import cluster_for_country
from repro.synth.config import WorldConfig
from repro.util.rng import Categorical, RngStream

__all__ = ["PersonSpec", "Population", "PopulationBuilder"]

# name clusters for people with no resolvable country
_STATELESS_CLUSTERS = ("western", "east_asian", "south_asian", "middle_eastern")
_STATELESS_CLUSTER_DRAWS = Categorical([0.55, 0.30, 0.10, 0.05])


@dataclass
class PersonSpec:
    """A researcher before careers are attached."""

    person_id: str
    gender: str                  # 'F' | 'M' (true gender; always binary)
    country_code: str | None     # None = unresolvable country
    sector: str                  # 'COM' | 'EDU' | 'GOV'
    full_name: str = ""
    evidence: EvidenceKind = EvidenceKind.NONE
    is_author: bool = False
    is_pc: bool = False


@dataclass(frozen=True)
class PopulationPlan:
    """Pool sizes for a world build.

    The paper's world derives these from TOTALS; the §6 universe
    extension derives them from an arbitrary conference-target list via
    :func:`plan_from_targets`.
    """

    unique_authors: int
    women_authors: int
    unique_pc: int
    women_pc: int


def plan_from_targets(
    targets,
    author_repeat: float = 1.12,
    pc_repeat: float = 1.344,
) -> PopulationPlan:
    """Derive pool sizes from conference targets.

    ``author_repeat``/``pc_repeat`` are the cross-conference multiplicity
    factors observed in the paper's data (2,111 conference-unique authors
    over 1,885 people; 1,220 PC memberships over 908 members).
    """
    uniq_slots = sum(t.unique_authors for t in targets)
    pc_slots = sum(t.pc_size for t in targets)
    n_authors = max(2, int(round(uniq_slots / author_repeat)))
    n_pc = max(2, int(round(pc_slots / pc_repeat)))
    far = (
        sum(t.unique_authors * t.far for t in targets) / uniq_slots
        if uniq_slots
        else 0.1
    )
    pc_far = sum(t.pc_women for t in targets) / pc_slots if pc_slots else 0.18
    return PopulationPlan(
        unique_authors=n_authors,
        women_authors=max(1, int(round(n_authors * far))),
        unique_pc=n_pc,
        women_pc=max(1, int(round(n_pc * pc_far))),
    )


@dataclass
class Population:
    """The generated pools.

    ``authors`` and ``pc_members`` overlap: a person flagged both
    ``is_author`` and ``is_pc`` appears in both lists (same object).
    """

    authors: list[PersonSpec] = field(default_factory=list)
    pc_members: list[PersonSpec] = field(default_factory=list)

    def everyone(self) -> list[PersonSpec]:
        seen: dict[str, PersonSpec] = {}
        for p in self.authors + self.pc_members:
            seen.setdefault(p.person_id, p)
        return list(seen.values())


# countries per region in the embedded dataset (for remainder spreading)
def _region_countries() -> dict[str, list[str]]:
    by_region: dict[str, list[str]] = {}
    for c in all_countries():
        by_region.setdefault(c.subregion, []).append(c.cca2)
    return by_region


@dataclass(frozen=True)
class _RegionCountries:
    """One region's rng-free country inputs for one role's allocation."""

    listed: list[str]            # countries with Table 2/Fig. 7 targets
    unlisted: list[str]          # the region's other embedded countries
    listed_w: np.ndarray         # the listed countries' combined totals
    listed_pct_w: list[float]    # their published female shares
    adj: float                   # region role share / region combined share


@dataclass(frozen=True)
class _RoleTables:
    """The inputs of ``_country_gender_cells`` that depend only on the
    role, not on the pool: built on first use, once per role."""

    region_totals: np.ndarray
    region_pct_w: np.ndarray
    identified_share: float
    regions: tuple[_RegionCountries, ...]  # aligned with REGION_ROLE_TARGETS


@functools.cache
def _role_tables(role: str) -> _RoleTables:
    regions = REGION_ROLE_TARGETS
    if role == "author":
        region_totals = np.array([r.author_total for r in regions], dtype=float)
        region_pct_w = np.array([r.author_pct_women for r in regions]) / 100.0
    else:
        region_totals = np.array([r.pc_total for r in regions], dtype=float)
        region_pct_w = np.array([r.pc_pct_women for r in regions]) / 100.0
    identified_share = float(region_totals.sum()) / (
        TOTALS["author_positions"] if role == "author" else TOTALS["pc_memberships"]
    )

    by_region = _region_countries()
    country_weight = {t.cca2: float(t.total) for t in COUNTRY_TARGETS}
    country_pct_w = {t.cca2: t.pct_women / 100.0 for t in COUNTRY_TARGETS}

    # Table 2's country shares combine authors + PC seats; within a
    # region the role-specific share differs (e.g. Eastern Asia: 11.9%
    # women among authors but 2.9% among PC).  Rescale each country's
    # combined share by (region role share / region combined share) to
    # get role-consistent seeds.
    per_region = []
    for r in regions:
        tot = r.author_total + r.pc_total
        wom = r.author_pct_women / 100.0 * r.author_total + (
            r.pc_pct_women / 100.0 * r.pc_total
        )
        combined = wom / tot if tot else 0.0
        role_pct = (r.author_pct_women if role == "author" else r.pc_pct_women) / 100.0
        codes = by_region.get(r.region, [])
        listed = [c for c in codes if c in country_weight]
        listed_w = np.array([country_weight[c] for c in listed], dtype=float)
        listed_w.setflags(write=False)
        per_region.append(
            _RegionCountries(
                listed=listed,
                unlisted=[c for c in codes if c not in country_weight],
                listed_w=listed_w,
                listed_pct_w=[country_pct_w[c] for c in listed],
                adj=role_pct / combined if combined > 0 else 1.0,
            )
        )
    for arr in (region_totals, region_pct_w):
        arr.setflags(write=False)
    return _RoleTables(region_totals, region_pct_w, identified_share, tuple(per_region))


class PopulationBuilder:
    """Builds the calibrated population for one world."""

    def __init__(
        self,
        config: WorldConfig,
        stream: RngStream,
        plan: "PopulationPlan | None" = None,
    ) -> None:
        self.cfg = config
        self.stream = stream
        self._bank = default_bank()
        self._next_id = 0
        self._plan = plan

    # ------------------------------------------------------------ id/gen

    def _new_id(self) -> str:
        pid = f"p{self._next_id:06d}"
        self._next_id += 1
        return pid

    # ----------------------------------------------------------- geography

    def _country_gender_cells(
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
        if role not in ("author", "pc"):
            raise ValueError(f"unknown role {role!r}")
        tables = _role_tables(role)
        n_identified = int(round(pool_size * tables.identified_share))
        n_unknown = pool_size - n_identified

        region_counts = allocate_counts(tables.region_totals, n_identified)
        region_women = np.minimum(
            np.round(region_counts * tables.region_pct_w).astype(np.int64), region_counts
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

        cells: list[tuple[str | None, str, int]] = []
        for r_idx, region in enumerate(tables.regions):
            total = int(region_counts[r_idx])
            women = int(region_women[r_idx])
            if total == 0:
                continue
            listed, unlisted = region.listed, region.unlisted
            if not listed and not unlisted:
                cells.append((None, "F", women))
                cells.append((None, "M", total - women))
                continue
            # Listed countries receive counts proportional to their Table 2
            # totals but capped so that any excess region mass spills into
            # the region's unlisted countries instead of inflating the
            # published ones.
            listed_w = region.listed_w
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
            # role-consistent per-country women seeds; unlisted countries
            # take the region's own share
            base = women / total if total else 0.0
            shares = np.clip(
                np.array(region.listed_pct_w + [base] * len(unlisted)) * region.adj,
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

    @staticmethod
    def _unknown_pool_women(n_unknown: int, role: str) -> int:
        """Women among unknown-country researchers (at the pool's base rate)."""
        base = 0.099 if role == "author" else 0.1846
        return int(round(n_unknown * base))

    # ------------------------------------------------------------- sectors

    def _assign_sectors(self, people: list[PersonSpec], rng: np.random.Generator) -> None:
        """Sector quotas over a pool (COM 8.6 / EDU 72.8 / GOV 18.6)."""
        n = len(people)
        counts = allocate_counts(
            np.array([SECTOR_SHARES["COM"], SECTOR_SHARES["EDU"], SECTOR_SHARES["GOV"]]),
            n,
        )
        labels = np.array(
            ["COM"] * counts[0] + ["EDU"] * counts[1] + ["GOV"] * counts[2],
            dtype=object,
        )
        rng.shuffle(labels)
        for p, s in zip(people, labels):
            p.sector = str(s)

    # ------------------------------------------------------- names/evidence

    def _assign_names_and_evidence(
        self, people: list[PersonSpec], rng: np.random.Generator
    ) -> None:
        """Names + manual-evidence quotas producing the §2 coverage split.

        manual (pronoun or photo): 95.18% of the pool;
        of the remaining 4.82%: 37% genderize-resolvable names (→1.79%),
        63% ambiguous names (→3.03% unassigned).
        """
        n = len(people)
        n_manual = int(round(n * TOTALS["manual_coverage"]))
        rest = n - n_manual
        n_genderize = int(round(n * TOTALS["genderize_coverage"]))
        n_genderize = min(n_genderize, rest)
        idx = rng.permutation(n)
        manual_idx = set(idx[:n_manual].tolist())
        genderize_idx = set(idx[n_manual : n_manual + n_genderize].tolist())
        taken_names: set[str] = set()
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for i, p in enumerate(people):
            cluster = (
                cluster_for_country(p.country_code)
                if p.country_code
                else _STATELESS_CLUSTERS[_STATELESS_CLUSTER_DRAWS.draw(rng)]
            )
            surname = self._bank.sample_surname(cluster, rng)
            if i in manual_idx:
                fore = self._bank.sample_forename(p.gender, cluster, rng)
                # pronoun pages dominate; photos are the fallback (§2 fn.2)
                p.evidence = (
                    EvidenceKind.PRONOUN if rng.random() < 0.85 else EvidenceKind.PHOTO
                )
            elif i in genderize_idx:
                fore = self._bank.sample_confident_forename(p.gender, cluster, rng)
                p.evidence = EvidenceKind.NONE
            else:
                fore = self._bank.sample_ambiguous_forename(p.gender, cluster, rng)
                p.evidence = EvidenceKind.NONE
            # Proceedings names frequently carry a middle initial; using
            # one (and retrying on collision) keeps distinct researchers
            # distinct at a realistic rate.  A residual collision rate
            # remains by design: after a few retries, duplicates stand —
            # the identity-resolution stage must cope with them.
            name = f"{fore} {surname}"
            for _attempt in range(3):
                candidate = name
                if rng.random() < 0.6 or _attempt > 0:
                    initial = alphabet[int(rng.integers(26))]
                    candidate = f"{fore} {initial}. {surname}"
                if candidate.lower() not in taken_names:
                    name = candidate
                    break
            taken_names.add(name.lower())
            p.full_name = name

    # --------------------------------------------------------------- build

    def _make_pool(
        self,
        n: int,
        women: int,
        role: str,
        rng: np.random.Generator,
    ) -> list[PersonSpec]:
        cells = self._country_gender_cells(role, n, women)
        # cells may not sum exactly to n after reconciliations; fix up on
        # the largest cell.
        total = sum(c for _, _, c in cells)
        if total != n and cells:
            code, g, c = max(cells, key=lambda t: t[2])
            cells[cells.index((code, g, c))] = (code, g, c + (n - total))
        people: list[PersonSpec] = []
        for code, g, count in cells:
            for _ in range(max(0, count)):
                people.append(
                    PersonSpec(
                        person_id=self._new_id(),
                        gender=g,
                        country_code=code,
                        sector="EDU",
                    )
                )
        rng.shuffle(people)  # avoid country-ordered ids leaking structure
        return people

    def build(self) -> Population:
        cfg = self.cfg
        rng = self.stream.child("population").generator()

        if self._plan is not None:
            plan = self._plan
            n_authors = cfg.scaled(plan.unique_authors)
            women_authors = max(1, int(round(n_authors * plan.women_authors / plan.unique_authors)))
            n_pc = cfg.scaled(plan.unique_pc)
            women_pc = max(1, int(round(n_pc * plan.women_pc / plan.unique_pc)))
        else:
            n_authors = cfg.scaled(TOTALS["unique_coauthors"])
            women_authors = int(round(n_authors * TOTALS["far_overall"]))
            n_pc = cfg.scaled(TOTALS["unique_pc_members"])
            women_pc = int(round(n_pc * TOTALS["pc_far"]))
        authors = self._make_pool(n_authors, women_authors, "author", rng)
        for p in authors:
            p.is_author = True
        n_overlap = int(round(n_pc * cfg.pc_author_overlap))
        # overlap members come from the author pool at the PC women rate,
        # so the PC pool's regional gender mix stays on Table 3's targets
        overlap_women = min(int(round(n_overlap * TOTALS["pc_far"])), women_pc)
        women_pool = [p for p in authors if p.gender == "F"]
        men_pool = [p for p in authors if p.gender == "M"]
        overlap_women = min(overlap_women, len(women_pool))
        n_overlap_men = min(n_overlap - overlap_women, len(men_pool))
        # Weight overlap picks by how over/under-represented each region is
        # on PCs relative to authorship (Table 3's two columns), so the PC
        # pool's regional gender mix is not polluted by the author mix —
        # e.g. Eastern Asia has 11.9% women among authors but only 2.9% on
        # PCs, so East-Asian women should rarely cross over.
        from repro.geo.regions import region_of_country

        pc_weight: dict[str, dict[str, float]] = {"F": {}, "M": {}}
        for rt in REGION_ROLE_TARGETS:
            a_w = rt.author_pct_women / 100.0
            p_w = rt.pc_pct_women / 100.0
            a_m, p_m = 1.0 - a_w, 1.0 - p_w
            a_tot = max(rt.author_total, 1)
            p_tot = rt.pc_total
            pc_weight["F"][rt.region] = (p_w * p_tot) / max(a_w * a_tot, 0.5)
            pc_weight["M"][rt.region] = (p_m * p_tot) / max(a_m * a_tot, 0.5)

        def overlap_pick(pool: list[PersonSpec], k: int, gender: str) -> list[PersonSpec]:
            if k <= 0:
                return []
            w = np.array(
                [
                    pc_weight[gender].get(
                        region_of_country(p.country_code) if p.country_code else None,
                        0.3,
                    )
                    if p.country_code
                    else 0.3
                    for p in pool
                ],
                dtype=float,
            )
            w = np.maximum(w, 1e-3)
            idx = rng.choice(len(pool), size=k, replace=False, p=w / w.sum())
            return [pool[int(i)] for i in idx]

        overlap = overlap_pick(women_pool, overlap_women, "F") + overlap_pick(
            men_pool, n_overlap_men, "M"
        )
        for p in overlap:
            p.is_pc = True

        n_new = n_pc - len(overlap)
        new_women = women_pc - overlap_women
        new_women = min(max(new_women, 0), n_new)
        pc_only = self._make_pool(n_new, new_women, "pc", rng)
        for p in pc_only:
            p.is_pc = True

        pop = Population(authors=authors, pc_members=overlap + pc_only)
        everyone = pop.everyone()
        self._assign_sectors(everyone, rng)
        self._assign_names_and_evidence(everyone, rng)
        return pop
