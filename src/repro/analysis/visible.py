"""§3.3 — visible roles: keynotes, panelists, session chairs.

"four conferences with no women at all in this role [keynotes]. Even
more striking ... three conferences had zero female session chairs out
of a total of 45 session chairs: HPDC, HPCC, and HiPC. Only SC shows a
ratio that is approaching gender parity."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.common import mask_eq, venues, women_share
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.proportions import Proportion

__all__ = ["VisibleReport", "visible_report"]

_VISIBLE = ("keynote", "panelist", "session_chair")


@dataclass(frozen=True)
class VisibleReport:
    """§3.3's quantities, per visible role."""

    overall: dict[str, Proportion]                       # role -> share
    by_conference: dict[str, dict[str, Proportion]]      # role -> conf -> share
    zero_women_confs: dict[str, tuple[str, ...]]         # role -> conf names
    zero_session_chair_seats: int                        # paper: 45


def visible_report(ds: AnalysisDataset) -> VisibleReport:
    """Compute §3.3 over an analysis dataset."""
    slots = ds.role_slots
    overall: dict[str, Proportion] = {}
    by_conf: dict[str, dict[str, Proportion]] = {}
    zero: dict[str, tuple[str, ...]] = {}

    names = venues(ds)
    seats_at: dict[str, int] = {}
    for role in _VISIBLE:
        tab = slots.filter(lambda t: mask_eq(t, "role", role))
        overall[role] = women_share(tab)
        conf_map: dict[str, Proportion] = {}
        zero_confs: list[str] = []
        for conf in names:
            sub = tab.filter(lambda t: mask_eq(t, "conference", conf))
            p = women_share(sub)
            conf_map[conf] = p
            if role == "session_chair":
                seats_at[conf] = sub.num_rows  # all seats, unknowns included
            if p.n > 0 and p.hits == 0:
                zero_confs.append(conf)
        by_conf[role] = conf_map
        zero[role] = tuple(zero_confs)

    zero_seats = sum(seats_at[c] for c in zero["session_chair"])
    return VisibleReport(
        overall=overall,
        by_conference=by_conf,
        zero_women_confs=zero,
        zero_session_chair_seats=zero_seats,
    )
