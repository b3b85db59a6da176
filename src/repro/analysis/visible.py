"""§3.3 — visible roles: keynotes, panelists, session chairs.

"four conferences with no women at all in this role [keynotes]. Even
more striking ... three conferences had zero female session chairs out
of a total of 45 session chairs: HPDC, HPCC, and HiPC. Only SC shows a
ratio that is approaching gender parity."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import mask_eq, memoized, venues, women_share, women_share_by
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


@memoized
def visible_report(ds: AnalysisDataset) -> VisibleReport:
    """Compute §3.3 over an analysis dataset."""
    slots = ds.role_slots
    overall: dict[str, Proportion] = {}
    by_conf: dict[str, dict[str, Proportion]] = {}
    zero: dict[str, tuple[str, ...]] = {}

    names = venues(ds)
    tabs = {role: slots.filter(lambda t: mask_eq(t, "role", role)) for role in _VISIBLE}
    for role, tab in tabs.items():
        overall[role] = women_share(tab)
        by_conf[role] = women_share_by(tab, "conference", names)
        zero[role] = tuple(
            c for c, p in by_conf[role].items() if p.n > 0 and p.hits == 0
        )

    # all seats at those venues, unknown genders included
    chairs = tabs["session_chair"]
    zero_seats = sum(
        int(np.sum(mask_eq(chairs, "conference", c))) for c in zero["session_chair"]
    )
    return VisibleReport(
        overall=overall,
        by_conference=by_conf,
        zero_women_confs=zero,
        zero_session_chair_seats=zero_seats,
    )
