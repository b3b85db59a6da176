"""§5.2 / Table 2, Table 3, Fig. 7 — geography.

Table 2 counts researchers per country (authors + PC seats) with the
women's share; Table 3 crosses M49 subregion with role; Fig. 7 plots the
women's share for every country with at least 10 authors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import mask_eq, memoized, tally_by
from repro.geo.countries import country_by_code
from repro.geo.regions import REGION_ORDER
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.proportions import Proportion
from repro.tabular import Column, Table
from repro.tabular.codes import factorize

__all__ = ["CountryRow", "RegionRow", "GeographyReport", "geography_report"]


@dataclass(frozen=True)
class CountryRow:
    """One row of Table 2 / Fig. 7."""

    country_code: str
    country_name: str
    total: int                 # researcher seats (authors + PC)
    women: Proportion
    author_total: int          # Fig. 7 threshold counts authors only


@dataclass(frozen=True)
class RegionRow:
    """One row of Table 3."""

    region: str
    authors: Proportion
    pc: Proportion


@dataclass(frozen=True)
class GeographyReport:
    countries: tuple[CountryRow, ...]      # descending by total
    regions: tuple[RegionRow, ...]         # Table 3 order
    identified_authors: int                # seats with a resolved country
    us_author_share: float                 # "a full half ... US email domain"


def _seat_table(ds: AnalysisDataset) -> Table:
    """All seats (author positions + PC seats): kind, country and gender."""
    r = ds.researchers
    positions = ds.author_positions
    pc = ds.role_slots.filter(lambda t: mask_eq(t, "role", "pc_member"))
    # author positions lack country columns: gather them from the
    # researcher table, one lookup per distinct id; an id with no
    # researcher row reads the extra empty row at the end
    row_of = dict(zip(r["researcher_id"], range(r.num_rows)))  # last row wins
    f = factorize(positions.col("researcher_id"))
    rows = np.array([row_of.get(rid, r.num_rows) for rid in f.uniques], np.int64)

    def of_researcher(column: str) -> np.ndarray:
        values = np.empty(r.num_rows + 1, dtype=object)
        values[:-1] = r[column]
        return values[rows[f.codes]]

    def column(name: str, authors: np.ndarray) -> Column:
        return Column(name, np.concatenate([authors, pc[name]]), "str")

    kinds = np.array(["author", "pc"], dtype=object)
    return Table(
        [
            Column("kind", kinds.repeat([positions.num_rows, pc.num_rows]), "str"),
            column("country", of_researcher("country")),
            column("gender", of_researcher("gender")),
        ]
    )


@memoized
def geography_report(ds: AnalysisDataset) -> GeographyReport:
    """Compute §5.2 over an analysis dataset."""
    seats = _seat_table(ds)
    author = mask_eq(seats, "kind", "author")
    pc = mask_eq(seats, "kind", "pc")
    known = ~seats.col("gender").is_missing()
    women = mask_eq(seats, "gender", "F") & known
    # one tally per country (seats without a country are not a key)
    codes, (total, authors_n, women_a, known_a, women_p, known_p) = tally_by(
        seats,
        "country",
        (np.ones(seats.num_rows, dtype=bool), author, women & author,
         known & author, women & pc, known & pc),
    )

    # ---- per-country rows (Table 2 / Fig. 7) -----------------------------
    rows: list[CountryRow] = []
    regions_present: dict[str, list[int]] = {}  # region -> its countries' tallies
    for j, code in enumerate(codes):
        country = country_by_code(code)
        rows.append(
            CountryRow(
                country_code=code,
                country_name=country.name if country else code,
                total=int(total[j]),
                women=Proportion(int(women_a[j] + women_p[j]), int(known_a[j] + known_p[j])),
                author_total=int(authors_n[j]),
            )
        )
        if country and country.subregion:
            regions_present.setdefault(country.subregion, []).append(j)
    rows.sort(key=lambda r: (-r.total, r.country_code))

    # ---- per-region rows (Table 3): sums of their countries' tallies ------
    region_rows: list[RegionRow] = []
    ordered = [r for r in REGION_ORDER if r in regions_present] + [
        r for r in sorted(regions_present) if r not in REGION_ORDER
    ]
    for region in ordered:
        js = regions_present[region]
        region_rows.append(
            RegionRow(
                region=region,
                authors=Proportion(int(women_a[js].sum()), int(known_a[js].sum())),
                pc=Proportion(int(women_p[js].sum()), int(known_p[js].sum())),
            )
        )

    identified = int(authors_n.sum())
    us = int(authors_n[codes.index("US")]) if "US" in codes else 0
    return GeographyReport(
        countries=tuple(rows),
        regions=tuple(region_rows),
        identified_authors=identified,
        us_author_share=us / identified if identified else float("nan"),
    )
