"""Per-venue analyses over a two-year dataset visit each venue once.

``ds.conferences`` has one row per edition, so a dataset spanning two
years names every venue twice.  The per-venue loops of ``far_report``,
``pc_report`` and ``visible_report`` (and ``policy_report``'s correlation
over them) must still see three venues, not six editions.
"""

import pytest

from repro.analysis import far_report, pc_report, visible_report
from repro.analysis.policies import policy_report
from repro.pipeline.dataset import AnalysisDataset
from repro.tabular import Table

VENUES = ("A", "B", "C")
YEARS = (2016, 2017)

# (venue, year, role, gender) seats; A never has a woman chair or a
# woman session chair in either year
_SEATS = [
    ("A", 2016, "pc_chair", "M"), ("A", 2017, "pc_chair", "M"),
    ("B", 2016, "pc_chair", "F"), ("B", 2017, "pc_chair", "M"),
    ("C", 2016, "pc_chair", "M"), ("C", 2017, "pc_chair", "F"),
    ("A", 2016, "session_chair", "M"), ("A", 2017, "session_chair", "M"),
    ("A", 2017, "session_chair", None),
    ("B", 2016, "session_chair", "F"), ("B", 2017, "session_chair", "M"),
    ("C", 2016, "session_chair", "M"), ("C", 2017, "session_chair", "F"),
]
# women among each venue's PC members and unique authors, split over years
_PC_WOMEN = {"A": (1, 4), "B": (2, 4), "C": (3, 4)}
_AUTHOR_WOMEN = {"A": (1, 6), "B": (1, 4), "C": (3, 6)}


def _seats():
    rows = [(v, y, role, g) for v, y, role, g in _SEATS]
    for v, (women, n) in _PC_WOMEN.items():
        rows += [(v, YEARS[i % 2], "pc_member", "F" if i < women else "M") for i in range(n)]
    return [
        {"researcher_id": f"r-{v}-{role}-{i}", "conference": v, "year": y, "role": role,
         "gender": g, "country": None, "region": None, "sector": None}
        for i, (v, y, role, g) in enumerate(rows)
    ]


def _authors():
    rows = []
    for v, (women, n) in _AUTHOR_WOMEN.items():
        for i in range(n):
            rows.append(
                {"paper_id": f"{v}-p{i}", "conference": v, "year": YEARS[i % 2],
                 "researcher_id": f"a-{v}-{i}", "position": 0, "is_first": True,
                 "is_last": False, "gender": "F" if i < women else "M"}
            )
    return rows


@pytest.fixture(scope="module")
def ds() -> AnalysisDataset:
    positions = Table.from_records(_authors())
    conf_authors = positions.select(["conference", "year", "researcher_id", "gender"])
    conferences = Table.from_records(
        [
            {"conference": v, "year": y, "diversity_chair": v == "B"}
            for y in YEARS
            for v in VENUES
        ]
    )
    slots = Table.from_records(_seats())
    researchers = Table({"researcher_id": list(slots["researcher_id"]),
                         "gender": list(slots["gender"])})
    return AnalysisDataset(
        researchers=researchers,
        author_positions=positions,
        conf_authors=conf_authors,
        papers=Table({"paper_id": list(positions["paper_id"])}),
        conferences=conferences,
        role_slots=slots,
    )


def test_dataset_names_each_venue_once_per_year(ds):
    assert list(ds.conferences["conference"]) == list(VENUES) * 2


def test_far_by_conference_has_one_entry_per_venue(ds):
    far = far_report(ds)
    assert [c.conference for c in far.by_conference] == list(VENUES)
    # each venue's share pools both years
    assert [(c.authors.hits, c.authors.n) for c in far.by_conference] == [
        _AUTHOR_WOMEN[v] for v in VENUES
    ]


def test_zero_women_chair_venues_listed_once(ds):
    pc = pc_report(ds)
    assert pc.zero_women_chair_confs == ("A",)
    assert list(pc.by_conference) == list(VENUES)
    assert list(pc.chairs_by_conference) == list(VENUES)


def test_policy_correlation_counts_venues(ds):
    corr = policy_report(ds).pc_vs_author_correlation
    assert (corr.n, corr.df) == (3, 1)


def test_zero_session_chair_seats_counted_once(ds):
    vis = visible_report(ds)
    assert vis.zero_women_confs["session_chair"] == ("A",)
    # A's three session-chair seats over both years, the unknown included
    assert vis.zero_session_chair_seats == 3
    assert list(vis.by_conference["session_chair"]) == list(VENUES)
