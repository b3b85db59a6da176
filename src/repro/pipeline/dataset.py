"""The tabular analysis dataset.

Everything §3–§5 computes comes off four tables (plus conference
metadata), mirroring the study's own R data frames:

- ``researchers``       — one row per unique researcher;
- ``author_positions``  — one row per authorship position (the paper's
  "2,236 authors" denominates positions);
- ``conf_authors``      — one row per (conference, researcher): the
  per-conference unique-author view of Table 1;
- ``papers``            — one row per paper with lead/last gender and
  reception metrics;
- ``conferences``       — per-edition metadata (review policy, diversity
  policies, acceptance).

Gender columns hold 'F', 'M', or missing (None) — missing researchers
are excluded from denominators exactly as in the paper.  The dataset can
be cheaply re-derived under different gender assignments
(:meth:`AnalysisDataset.with_assignments`), which is how the sensitivity
analysis re-runs everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.confmodel.roles import Role
from repro.gender.model import Gender, GenderAssignment
from repro.pipeline.enrich import Enrichment
from repro.pipeline.link import LinkedData
from repro.tabular import Column, Table
from repro.tabular.codes import factorize

__all__ = ["AnalysisDataset"]

# instance attribute holding the report memo; never pickled
_MEMO = "_report_memo"


def _table(columns: dict[str, list]) -> Table:
    """The table of these columns; with no rows, no columns either.

    That is what ``Table.from_records`` gives for an empty row list,
    which a harvest that lost a page produces.
    """
    return Table(columns) if next(iter(columns.values())) else Table()


def _str_array(values: list) -> np.ndarray:
    """An object array of ``values`` (element by element, never nested)."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _gender_str(a: GenderAssignment | None) -> str | None:
    if a is None or not a.known:
        return None
    return a.gender.value


@dataclass
class AnalysisDataset:
    """The pipeline's final product; input of every analysis module."""

    researchers: Table
    author_positions: Table
    conf_authors: Table
    papers: Table
    conferences: Table
    role_slots: Table            # non-author roles, one row per seat
    assignments: dict[str, GenderAssignment] = field(default_factory=dict)

    # ------------------------------------------------------------ builders

    @classmethod
    def build(
        cls,
        linked: LinkedData,
        enrichment: dict[str, Enrichment],
        assignments: dict[str, GenderAssignment],
    ) -> "AnalysisDataset":
        # Every table is built column by column: the same per-column value
        # lists ``Table.from_records`` would transpose out of row dicts, so
        # the same kinds and values, without a dict per row.
        gender = {rid: _gender_str(assignments.get(rid)) for rid in linked.researchers}

        # ---- researchers ---------------------------------------------------
        rids = list(linked.researchers)
        recs = list(linked.researchers.values())
        es = [enrichment.get(rid) for rid in rids]
        researchers = _table(
            {
                "researcher_id": rids,
                "full_name": [rec.full_name for rec in recs],
                "gender": [gender[rid] for rid in rids],
                "gender_method": [
                    a.method.value if a else "none"
                    for a in (assignments.get(rid) for rid in rids)
                ],
                "country": [e.country_code if e else None for e in es],
                "region": [e.region if e else None for e in es],
                "sector": [e.sector if e else None for e in es],
                "is_author": [rec.is_author for rec in recs],
                "is_pc": [rec.is_pc_member for rec in recs],
                "gs_pubs": [e.gs_publications if e else None for e in es],
                "gs_h": [e.gs_h_index if e else None for e in es],
                "gs_i10": [e.gs_i10 if e else None for e in es],
                "gs_citations": [e.gs_citations if e else None for e in es],
                "s2_pubs": [e.s2_publications if e else None for e in es],
                "has_gs": [bool(e and e.has_gs) for e in es],
            }
        )

        # ---- author positions ------------------------------------------------
        pos_paper: list = []
        pos_conf: list = []
        pos_year: list = []
        pos_rid: list = []
        pos_k: list = []
        pos_first: list = []
        pos_last: list = []
        first_year: dict[tuple[str, str], int] = {}  # (conference, rid) -> year
        for paper in linked.papers:
            ids = paper.author_ids
            n = len(ids)
            pos_paper += [paper.paper_id] * n
            pos_conf += [paper.conference] * n
            pos_year += [paper.year] * n
            pos_rid += ids
            pos_k += range(n)
            pos_first += [k == 0 for k in range(n)]
            pos_last += [n > 1 and k == n - 1 for k in range(n)]
            for rid in ids:
                first_year.setdefault((paper.conference, rid), paper.year)
        author_positions = _table(
            {
                "paper_id": pos_paper,
                "conference": pos_conf,
                "year": pos_year,
                "researcher_id": pos_rid,
                "position": pos_k,
                "is_first": pos_first,
                "is_last": pos_last,
                "gender": [gender.get(rid) for rid in pos_rid],
            }
        )
        ca_rids = [rid for _, rid in first_year]
        ca_es = [enrichment.get(rid) for rid in ca_rids]
        conf_authors = _table(
            {
                "conference": [conf for conf, _ in first_year],
                "year": list(first_year.values()),
                "researcher_id": ca_rids,
                "gender": [gender.get(rid) for rid in ca_rids],
                "country": [e.country_code if e else None for e in ca_es],
                "region": [e.region if e else None for e in ca_es],
                "sector": [e.sector if e else None for e in ca_es],
            }
        )

        # ---- papers ------------------------------------------------------------
        lps = linked.papers
        firsts = [p.author_ids[0] if p.author_ids else None for p in lps]
        lasts = [p.author_ids[-1] if len(p.author_ids) > 1 else None for p in lps]
        cites = [p.citations_36mo for p in lps]
        papers = _table(
            {
                "paper_id": [p.paper_id for p in lps],
                "conference": [p.conference for p in lps],
                "year": [p.year for p in lps],
                "num_authors": [len(p.author_ids) for p in lps],
                "first_author": firsts,
                "last_author": lasts,
                "first_gender": [gender.get(r) if r else None for r in firsts],
                "last_gender": [gender.get(r) if r else None for r in lasts],
                "citations_36mo": cites,
                "reaches_i10": [(c >= 10) if c is not None else None for c in cites],
                "is_hpc": [p.is_hpc_topic for p in lps],
            }
        )

        # ---- conferences -------------------------------------------------------
        confs = linked.conferences
        pols = [c.diversity_policies for c in confs]
        conferences = _table(
            {
                "conference": [c.conference for c in confs],
                "year": [c.year for c in confs],
                "date": [c.date for c in confs],
                "country": [c.country for c in confs],
                "accepted": [c.accepted for c in confs],
                "submitted": [c.submitted for c in confs],
                "acceptance_rate": [c.acceptance_rate for c in confs],
                "double_blind": [c.review_policy == "double" for c in confs],
                "diversity_chair": [any("Chair" in p for p in ps) for ps in pols],
                "code_of_conduct": [any("Conduct" in p for p in ps) for ps in pols],
                "childcare": [any("childcare" in p for p in ps) for ps in pols],
                "demographic_reporting": [
                    any("Demographic" in p for p in ps) for ps in pols
                ],
            }
        )

        # ---- role slots (non-author seats, repeats included) ----------------
        slots = [
            (rid, e, conf_name, year, role)
            for rid, rec, e in zip(rids, recs, es)
            for conf_name, year, role in rec.roles
            if role is not Role.AUTHOR
        ]
        # the columns exist even when there are no seats
        role_slots = Table(
            {
                "researcher_id": [s[0] for s in slots],
                "conference": [s[2] for s in slots],
                "year": [s[3] for s in slots],
                "role": [s[4].value for s in slots],
                "gender": [gender[s[0]] for s in slots],
                "country": [s[1].country_code if s[1] else None for s in slots],
                "region": [s[1].region if s[1] else None for s in slots],
                "sector": [s[1].sector if s[1] else None for s in slots],
            }
        )

        return cls(
            researchers=researchers,
            author_positions=author_positions,
            conf_authors=conf_authors,
            papers=papers,
            conferences=conferences,
            role_slots=role_slots,
            assignments=dict(assignments),
        )

    # ---------------------------------------------------------- re-derivation

    def with_assignments(
        self, assignments: dict[str, GenderAssignment]
    ) -> "AnalysisDataset":
        """Rebuild all gender columns under different assignments.

        Used by the §2 sensitivity analysis (force unknowns to F, then M)
        — everything except the gender columns is reused as-is, and the
        new dataset starts with an empty report memo.
        """
        ids = self.researchers.col("researcher_id")
        # assignments are shared immutable values (a few hundred distinct
        # objects for tens of thousands of researchers): render each once,
        # then gather the rendered cells per researcher
        objs = list(map(assignments.get, ids.values))
        keys = list(map(id, objs))
        distinct = dict(zip(keys, objs))
        gender_of = {k: _gender_str(a) for k, a in distinct.items()}
        method_of = {
            k: a.method.value if a is not None else "none" for k, a in distinct.items()
        }
        genders = _str_array(list(map(gender_of.__getitem__, keys)))
        methods = _str_array(list(map(method_of.__getitem__, keys)))
        gender = dict(zip(ids.values, genders))

        def regender(table: Table, id_col: str, out_col: str) -> Table:
            # one lookup per distinct id (the column's cached
            # factorization), then a gather over the rows; an absent
            # author (None) is no researcher's id
            f = factorize(table.col(id_col))
            vals = _str_array([gender.get(rid) for rid in f.uniques])[f.codes]
            return table.with_column(out_col, Column(out_col, vals, "str"))

        researchers = self.researchers.with_column(
            "gender", Column("gender", genders, "str")
        )
        researchers = researchers.with_column(
            "gender_method", Column("gender_method", methods, "str")
        )
        return AnalysisDataset(
            researchers=researchers,
            author_positions=regender(self.author_positions, "researcher_id", "gender"),
            conf_authors=regender(self.conf_authors, "researcher_id", "gender"),
            papers=regender(
                regender(self.papers, "first_author", "first_gender"),
                "last_author",
                "last_gender",
            ),
            conferences=self.conferences,
            role_slots=regender(self.role_slots, "researcher_id", "gender"),
            assignments=dict(assignments),
        )

    # ----------------------------------------------------------- report memo

    @property
    def report_memo(self) -> dict:
        """Reports computed on this object (METHODOLOGY §18).

        Filled by :func:`repro.analysis.common.memoized`.  It is not a
        dataclass field, so ``==``, ``repr`` and field walks ignore it,
        and it is dropped from pickles: it lives exactly as long as this
        object and a new or re-derived dataset starts empty.
        """
        return self.__dict__.setdefault(_MEMO, {})

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != _MEMO}

    # ------------------------------------------------------------- shortcuts

    def known_gender_researchers(self) -> Table:
        return self.researchers.filter(lambda t: ~t.col("gender").is_missing())

    def unknown_count(self) -> int:
        return int(self.researchers.col("gender").is_missing().sum())
